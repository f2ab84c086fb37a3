// Command paxsite serves tree fragments over TCP — one paxsite process per
// machine in the deployment of §6. It loads fragments from a paxfrag
// output directory and answers the stage requests of PaX3/PaX2 issued by a
// paxq coordinator.
//
// Usage (serve fragments 1 and 3 of a saved fragmentation):
//
//	paxsite -dir frags/ -frags 1,3 -listen 127.0.0.1:7001
//
// A replica group is several paxsite processes started with the same
// -frags and their own -listen address: every member must host the
// group's full fragment set, so the coordinator's failover layer can
// rotate between them:
//
//	paxsite -dir frags/ -frags 1,3 -listen 127.0.0.1:7001 -site 2
//	paxsite -dir frags/ -frags 1,3 -listen 127.0.0.1:7002 -site 3
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
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
	listen := flag.String("listen", "127.0.0.1:0", "listen address")
	siteID := flag.Int("site", 0, "site identifier: names this process in its startup line and in its error messages")
	flag.Parse()

	if *dir == "" {
		fmt.Fprintln(os.Stderr, "paxsite: -dir is required")
		os.Exit(2)
	}
	m, err := fragment.LoadManifest(filepath.Join(*dir, fragment.ManifestName))
	if err != nil {
		fatal(err)
	}
	ids, err := parseFrags(*fragList, m.Len())
	if err != nil {
		fatal(err)
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

// parseFrags parses the -frags list against a manifest of n fragments:
// "all", or comma-separated IDs, each in 0..n-1 and named once.
func parseFrags(list string, n int) ([]fragment.FragID, error) {
	var ids []fragment.FragID
	if list == "all" {
		for i := 0; i < n; i++ {
			ids = append(ids, fragment.FragID(i))
		}
		return ids, nil
	}
	for _, part := range strings.Split(list, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad fragment id %q in -frags %q", part, list)
		}
		if id < 0 || id >= n {
			return nil, fmt.Errorf("-frags %q: fragment %d is outside the manifest's fragments 0..%d", list, id, n-1)
		}
		if slices.Contains(ids, fragment.FragID(id)) {
			return nil, fmt.Errorf("-frags %q: fragment %d is named twice", list, id)
		}
		ids = append(ids, fragment.FragID(id))
	}
	return ids, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "paxsite: %v\n", err)
	os.Exit(1)
}
