package pax

import (
	"fmt"
	"sort"

	"paxq/internal/dist"
	"paxq/internal/fragment"
)

// Topology maps fragments to sites — the deployment layer the paper leaves
// to "the system". It imposes no constraints: any fragment may live at any
// site, several fragments may share a site.
//
// A topology may additionally be replicated (Replicate): sites are then
// grouped into disjoint replica groups whose members host identical
// fragment sets. SiteOf keeps mapping each fragment to its group's
// primary; the coordinator addresses primaries and the failover layer
// rotates to the other group members when a primary dies. Every member of
// a group must host the group's full fragment set because Stage 1
// evaluates all fragments a site hosts — an asymmetric replica would
// change root vectors, and so answers, depending on who served.
type Topology struct {
	FT     *fragment.Fragmentation
	SiteOf map[fragment.FragID]dist.SiteID

	fragsAt map[dist.SiteID][]fragment.FragID
	sites   []dist.SiteID
	// primaries are the sites the coordinator addresses — one per replica
	// group; equal to sites in an unreplicated topology.
	primaries []dist.SiteID
	// replicasOf maps each primary to its ordered group (primary first).
	replicasOf map[dist.SiteID][]dist.SiteID
}

// NewTopology validates and indexes an assignment of fragments to sites.
func NewTopology(ft *fragment.Fragmentation, siteOf map[fragment.FragID]dist.SiteID) (*Topology, error) {
	t := &Topology{FT: ft, SiteOf: make(map[fragment.FragID]dist.SiteID, ft.Len()), fragsAt: make(map[dist.SiteID][]fragment.FragID)}
	for i := 0; i < ft.Len(); i++ {
		id := fragment.FragID(i)
		site, ok := siteOf[id]
		if !ok {
			return nil, fmt.Errorf("pax: fragment %d has no site", id)
		}
		t.SiteOf[id] = site
		t.fragsAt[site] = append(t.fragsAt[site], id)
	}
	for site := range t.fragsAt {
		t.sites = append(t.sites, site)
		sort.Slice(t.fragsAt[site], func(i, j int) bool { return t.fragsAt[site][i] < t.fragsAt[site][j] })
	}
	sort.Slice(t.sites, func(i, j int) bool { return t.sites[i] < t.sites[j] })
	t.primaries = t.sites
	return t, nil
}

// Replicate turns the topology into a replicated one: replicasOf maps
// each primary site to its ordered replica group. A group must start with
// the primary, groups must be disjoint, every primary must have a group,
// and no replica may collide with another group's member. Replica members
// inherit the primary's full fragment set and are added to Sites(), so
// the cluster builders instantiate them like any other site; SiteOf keeps
// pointing at primaries, so relevance routing is unchanged.
func (t *Topology) Replicate(replicasOf map[dist.SiteID][]dist.SiteID) error {
	owner := make(map[dist.SiteID]dist.SiteID, len(t.primaries)) // member -> primary
	for _, p := range t.primaries {
		group, ok := replicasOf[p]
		if !ok || len(group) == 0 {
			return fmt.Errorf("pax: replica group for primary site %d is missing or empty", p)
		}
		if group[0] != p {
			return fmt.Errorf("pax: replica group of primary site %d must start with it, got %v", p, group)
		}
		for _, m := range group {
			if prev, dup := owner[m]; dup {
				return fmt.Errorf("pax: site %d appears in the replica groups of both %d and %d", m, prev, p)
			}
			owner[m] = p
		}
	}
	for p := range replicasOf {
		if _, ok := t.fragsAt[p]; !ok {
			return fmt.Errorf("pax: replica group names primary site %d, which hosts no fragments", p)
		}
	}
	t.replicasOf = make(map[dist.SiteID][]dist.SiteID, len(replicasOf))
	for _, p := range t.primaries {
		group := append([]dist.SiteID(nil), replicasOf[p]...)
		t.replicasOf[p] = group
		for _, m := range group[1:] {
			t.fragsAt[m] = t.fragsAt[p]
		}
	}
	// Rebuild into a fresh slice: t.primaries aliases the pre-replication
	// t.sites array, which must keep holding exactly the primaries.
	sites := make([]dist.SiteID, 0, len(t.fragsAt))
	for site := range t.fragsAt {
		sites = append(sites, site)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
	t.sites = sites
	return nil
}

// Replicated reports whether any fragment has more than one replica site.
func (t *Topology) Replicated() bool {
	for _, group := range t.replicasOf {
		if len(group) > 1 {
			return true
		}
	}
	return false
}

// Primaries returns the sites the coordinator addresses, ascending — one
// per replica group; all sites in an unreplicated topology.
func (t *Topology) Primaries() []dist.SiteID { return t.primaries }

// ReplicasOf returns the primary's replica group in rotation order,
// primary first. For an unreplicated topology (or an unknown primary) it
// returns just the site itself.
func (t *Topology) ReplicasOf(primary dist.SiteID) []dist.SiteID {
	if group, ok := t.replicasOf[primary]; ok {
		return group
	}
	return []dist.SiteID{primary}
}

// RoundRobin assigns fragment i to site i mod numSites — the layout of
// Experiment 1, one fragment per machine when numSites >= fragments.
func RoundRobin(ft *fragment.Fragmentation, numSites int) *Topology {
	if numSites < 1 {
		numSites = 1
	}
	m := make(map[fragment.FragID]dist.SiteID, ft.Len())
	for i := 0; i < ft.Len(); i++ {
		m[fragment.FragID(i)] = dist.SiteID(i % numSites)
	}
	t, err := NewTopology(ft, m)
	if err != nil {
		//paxlint:allow nopanic(unreachable: the computed assignment is total over the fragments)
		panic(err)
	}
	return t
}

// RoundRobinReplicated is RoundRobin over numGroups replica groups of
// `replication` members each: fragment i belongs to group i mod numGroups,
// group g occupies sites g*replication .. g*replication+replication-1,
// primary first. With replication = 1 the layout (and the site numbering)
// is exactly RoundRobin's.
func RoundRobinReplicated(ft *fragment.Fragmentation, numGroups, replication int) *Topology {
	if numGroups < 1 {
		numGroups = 1
	}
	if replication < 1 {
		replication = 1
	}
	m := make(map[fragment.FragID]dist.SiteID, ft.Len())
	for i := 0; i < ft.Len(); i++ {
		m[fragment.FragID(i)] = dist.SiteID((i % numGroups) * replication)
	}
	t, err := NewTopology(ft, m)
	if err == nil && replication > 1 {
		groups := make(map[dist.SiteID][]dist.SiteID, len(t.primaries))
		for _, p := range t.primaries {
			group := make([]dist.SiteID, replication)
			for r := 0; r < replication; r++ {
				group[r] = p + dist.SiteID(r)
			}
			groups[p] = group
		}
		err = t.Replicate(groups)
	}
	if err != nil {
		//paxlint:allow nopanic(unreachable: the computed assignment is total and the groups are disjoint by construction)
		panic(err)
	}
	return t
}

// Sites returns every site in the topology, ascending.
func (t *Topology) Sites() []dist.SiteID { return t.sites }

// FragsAt returns the fragments hosted at a site, ascending.
func (t *Topology) FragsAt(site dist.SiteID) []fragment.FragID { return t.fragsAt[site] }

// BuildLocalCluster constructs the in-process cluster for a topology: one
// Site per SiteID, registered on a fresh Local transport.
func BuildLocalCluster(t *Topology) (*dist.Local, []*Site) {
	local := dist.NewLocal()
	var sites []*Site
	for _, sid := range t.sites {
		var frags []*fragment.Fragment
		for _, fid := range t.fragsAt[sid] {
			frags = append(frags, t.FT.Frag(fid))
		}
		site := NewSite(sid, frags)
		local.AddSite(sid, site.Handler())
		sites = append(sites, site)
	}
	return local, sites
}

// BuildTCPCluster starts one TCP server per site on the loopback interface
// and returns the connected transport, the in-process Site instances
// backing the servers (for cache/stats introspection), and a shutdown
// function.
func BuildTCPCluster(t *Topology) (*dist.TCP, []*Site, func(), error) {
	addrs := make(map[dist.SiteID]string, len(t.sites))
	var servers []*dist.TCPServer
	var sites []*Site
	shutdown := func() {
		for _, s := range servers {
			s.Close()
		}
	}
	for _, sid := range t.sites {
		var frags []*fragment.Fragment
		for _, fid := range t.fragsAt[sid] {
			frags = append(frags, t.FT.Frag(fid))
		}
		site := NewSite(sid, frags)
		srv, err := dist.NewTCPServer("127.0.0.1:0", site.Handler())
		if err != nil {
			shutdown()
			return nil, nil, nil, err
		}
		servers = append(servers, srv)
		sites = append(sites, site)
		addrs[sid] = srv.Addr()
	}
	tcp := dist.NewTCP(addrs)
	return tcp, sites, func() { tcp.Close(); shutdown() }, nil
}
