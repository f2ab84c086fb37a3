// Distributed: the same engine over real TCP servers. Every site runs a
// genuine network server on the loopback interface; the coordinator talks
// the hand-written binary wire format over TCP. The example sets the
// partial-evaluation algorithms' traffic (bounded by query size and answer
// size) against the document's size, the least a ship-everything baseline
// must move (bounded only by the data size) — the core economic argument
// of the paper.
package main

import (
	"fmt"
	"log"

	"paxq"
)

func main() {
	doc := paxq.GenerateXMark(3, 0.8, 7)
	cluster, err := paxq.NewCluster(doc, paxq.ClusterOptions{
		Fragments: 6,
		Sites:     3,
		Transport: paxq.TransportTCP,
		Seed:      11,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	fmt.Printf("document: %d nodes (~%.2f MB) in %d fragments on %d TCP sites\n\n",
		doc.Nodes(), float64(doc.Bytes())/1e6, cluster.Fragments(), cluster.Sites())

	query := `/sites/site/people/person[address/country = "US"]/name`
	fmt.Printf("query: %s\n\n", query)
	fmt.Printf("%-18s %8s %7s %12s %12s %12s\n", "algorithm", "answers", "visits", "sent", "received", "wall")
	var paxRecv int64
	for _, algo := range []string{"pax2", "pax3"} {
		answers, stats, err := cluster.Query(query, paxq.QueryOptions{Algorithm: algo, Annotations: true})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s %8d %7d %11dB %11dB %12v\n",
			stats.Algorithm, len(answers), stats.MaxSiteVisits, stats.BytesSent, stats.BytesReceived, stats.Wall)
		if algo == "pax2" {
			paxRecv = stats.BytesReceived
		}
	}
	if paxRecv > 0 {
		fmt.Printf("\nShipping every fragment would move at least the document's %d bytes, %.0fx what PaX2 received —\n",
			doc.Bytes(), float64(doc.Bytes())/float64(paxRecv))
		fmt.Println("partial evaluation ships residual Boolean formulas, not fragments.")
	}
}
