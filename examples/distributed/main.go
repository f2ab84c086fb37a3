// Distributed: the same engine over real TCP servers. Every site runs a
// genuine network server on the loopback interface; the coordinator talks
// the hand-written binary wire format over TCP. The example contrasts the
// partial-evaluation algorithms' traffic (bounded by query size and answer
// size) against the naive ship-everything baseline (bounded only by the
// data size) — the core economic argument of the paper.
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
	var paxRecv, naiveRecv int64
	for _, algo := range []string{"pax2", "pax3", "naive"} {
		answers, stats, err := cluster.Query(query, paxq.QueryOptions{Algorithm: algo, Annotations: algo != "naive"})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s %8d %7d %11dB %11dB %12v\n",
			stats.Algorithm, len(answers), stats.MaxSiteVisits, stats.BytesSent, stats.BytesReceived, stats.Wall)
		switch algo {
		case "pax2":
			paxRecv = stats.BytesReceived
		case "naive":
			naiveRecv = stats.BytesReceived
		}
	}
	if paxRecv > 0 {
		fmt.Printf("\nNaiveCentralized shipped %.0fx more data than PaX2 —\n", float64(naiveRecv)/float64(paxRecv))
		fmt.Println("partial evaluation ships residual Boolean formulas, not fragments.")
	}
}
