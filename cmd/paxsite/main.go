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
	var ids []fragment.FragID
	switch {
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
