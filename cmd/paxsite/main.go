// Command paxsite serves tree fragments over TCP — one paxsite process per
// machine in the deployment of §6. It loads fragments from a paxfrag
// output directory and answers the stage requests of PaX3/PaX2 issued by a
// paxq coordinator.
//
// Usage (serve fragments 1 and 3 of a saved fragmentation):
//
//	paxsite -dir frags/ -frags 1,3 -listen 127.0.0.1:7001
//
// As a replicated fleet member, the site takes its assignment — fragment
// set and listen address — from a registry file written by
// paxq.SaveRegistry, so every replica of a group serves the group's full
// fragment set and the coordinator's failover layer can rotate between
// them:
//
//	paxsite -dir frags/ -registry fleet.json -site 3
//
// -cache-size enables Stage-1 (qualifier pass) memoization: repeated
// queries are answered from cache with zero tree traversal. Fragments
// loaded from -dir are immutable for the process lifetime, so entries
// only ever leave the cache by eviction or -cache-ttl expiry.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"

	"paxq/internal/dist"
	"paxq/internal/fragment"
	"paxq/internal/pax"
)

func main() {
	dir := flag.String("dir", "", "fragment directory written by paxfrag (required)")
	fragList := flag.String("frags", "all", "comma-separated fragment IDs to host, or 'all'")
	registry := flag.String("registry", "", "site registry JSON: host the fragments registered for -site (overrides -frags; defaults -listen to the registered address)")
	listen := flag.String("listen", "127.0.0.1:0", "listen address")
	siteID := flag.Int("site", 0, "site identifier: names this fleet member in the registry and in coordinator metrics")
	cacheSize := flag.Int("cache-size", 0, "Stage-1 memoization cache entries (0 = disabled)")
	cacheTTL := flag.Duration("cache-ttl", 0, "lifetime of memoized Stage-1 results (0 = until evicted)")
	flag.Parse()

	if *dir == "" {
		fmt.Fprintln(os.Stderr, "paxsite: -dir is required")
		os.Exit(2)
	}
	m, err := fragment.LoadManifest(filepath.Join(*dir, fragment.ManifestName))
	if err != nil {
		fatal(err)
	}
	var ids []fragment.FragID
	switch {
	case *registry != "":
		reg, err := pax.LoadRegistry(*registry)
		if err != nil {
			fatal(err)
		}
		ids = reg.FragsOf(dist.SiteID(*siteID))
		if len(ids) == 0 {
			fatal(fmt.Errorf("registry %s assigns no fragments to site %d", *registry, *siteID))
		}
		// The registered address is the fleet's contract for this site;
		// an explicit -listen still wins (e.g. port 0 in tests).
		listenSet := false
		flag.Visit(func(f *flag.Flag) { listenSet = listenSet || f.Name == "listen" })
		if addr, ok := reg.Addrs()[dist.SiteID(*siteID)]; ok && !listenSet {
			*listen = addr
		}
	case *fragList == "all":
		for i := 0; i < m.Len(); i++ {
			ids = append(ids, fragment.FragID(i))
		}
	default:
		for _, part := range strings.Split(*fragList, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				fatal(fmt.Errorf("bad fragment id %q", part))
			}
			ids = append(ids, fragment.FragID(n))
		}
	}
	var frags []*fragment.Fragment
	for _, id := range ids {
		f, err := m.LoadFragment(*dir, id)
		if err != nil {
			fatal(err)
		}
		frags = append(frags, f)
	}
	site := pax.NewSite(dist.SiteID(*siteID), frags)
	if *cacheSize > 0 {
		site.EnableCache(*cacheSize, *cacheTTL)
	}
	srv, err := dist.NewTCPServer(*listen, site.Handler())
	if err != nil {
		fatal(err)
	}
	fmt.Printf("paxsite: site %d serving fragments %v on %s\n", *siteID, ids, srv.Addr())

	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	srv.Close()
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "paxsite: %v\n", err)
	os.Exit(1)
}
