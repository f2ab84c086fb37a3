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
// A topology may additionally be replicated (RoundRobinReplicated): sites
// are then grouped into disjoint replica groups whose members host identical
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

// Replicated reports whether every fragment has more than one replica
// site (RoundRobinReplicated groups sites only for replication > 1).
func (t *Topology) Replicated() bool { return t.replicasOf != nil }

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
	return RoundRobinReplicated(ft, numSites, 1)
}

// RoundRobinReplicated is RoundRobin over numGroups replica groups of
// `replication` members each: fragment i belongs to group i mod numGroups,
// group g occupies sites g*replication .. g*replication+replication-1,
// primary first. With replication = 1 it is RoundRobin: every site is a
// group of one.
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
	if err != nil {
		//paxlint:allow nopanic(unreachable: the computed assignment is total over the fragments)
		panic(err)
	}
	if replication == 1 {
		return t
	}
	// Each member inherits its primary's full fragment set; SiteOf keeps
	// pointing at primaries, so relevance routing is unchanged. Primaries
	// ascend in steps of replication, so the groups are disjoint and sites
	// stays ascending.
	t.replicasOf = make(map[dist.SiteID][]dist.SiteID, len(t.primaries))
	sites := make([]dist.SiteID, 0, len(t.primaries)*replication)
	for _, p := range t.primaries {
		group := make([]dist.SiteID, replication)
		for r := range group {
			group[r] = p + dist.SiteID(r)
			t.fragsAt[group[r]] = t.fragsAt[p]
		}
		t.replicasOf[p] = group
		sites = append(sites, group...)
	}
	// A fresh slice: t.primaries aliases the unreplicated t.sites.
	t.sites = sites
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
