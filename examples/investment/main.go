// Investment clientele: the running example of the paper (Fig. 1). An
// investment company's client tree is fragmented for regulatory reasons —
// Canadian trade data must stay on a Canadian server, NASDAQ data is only
// remotely accessible — yet queries are posed against the single
// conceptual tree. This example reproduces the paper's fragmentation and
// walks through the queries of §1 and §2.2, showing how partial evaluation
// answers them without ever shipping fragment data.
package main

import (
	"fmt"
	"log"

	"paxq"
)

const clientele = `<clientele>
  <client><name>Anna</name><country>US</country>
    <broker><name>Etrade</name>
      <market><name>NYSE</name><stock><code>IBM</code><buy>80</buy><qt>50</qt></stock></market>
      <market><name>NASDAQ</name>
        <stock><code>YHOO</code><buy>33</buy><qt>40</qt></stock>
        <stock><code>GOOG</code><buy>374</buy><qt>40</qt></stock>
      </market>
    </broker>
  </client>
  <client><name>Kim</name><country>US</country>
    <broker><name>Bache</name>
      <market><name>NASDAQ</name><stock><code>GOOG</code><buy>370</buy><qt>75</qt></stock></market>
    </broker>
  </client>
  <client><name>Lisa</name><country>Canada</country>
    <broker><name>CIBC</name>
      <market><name>TSE</name><stock><code>GOOG</code><buy>382</buy><qt>90</qt></stock></market>
    </broker>
  </client>
</clientele>`

func main() {
	doc, err := paxq.ParseDocumentString(clientele)
	if err != nil {
		log.Fatal(err)
	}
	// The paper's fragmentation: the first client's broker subtree (F1),
	// the NASDAQ market inside it (F2), and the remaining market subtrees
	// (F3, F4) each live on separate sites; the root fragment (F0) stays
	// at the company's US server.
	cluster, err := paxq.NewCluster(doc, paxq.ClusterOptions{
		CutPaths: []string{
			`client[name = "Anna"]/broker`,
			`//broker[name = "Etrade"]/market[name = "NASDAQ"]`,
			`client[name = "Kim"]/broker/market`,
			`client[name = "Lisa"]/broker/market`,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	fmt.Printf("clientele tree: %d nodes in %d fragments over %d sites\n\n",
		doc.Nodes(), cluster.Fragments(), cluster.Sites())

	// §1: the Boolean query [//stock/code/text() = "goog"] — is anyone
	// trading GOOG? Answered by ParBoX with a single visit per site.
	trading, err := cluster.EvaluateBool(`[//stock/code/text() = "GOOG"]`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("some client trades GOOG: %v\n\n", trading)

	// §1: the data-selecting extension Q' — brokers through which GOOG is
	// purchased. This is what ParBoX cannot answer and PaX2/PaX3 can.
	show(cluster, `brokers trading GOOG`, `//broker[//stock/code/text() = "GOOG"]/name`)

	// §2.2 Q1: GOOG but not YHOO.
	show(cluster, "brokers trading GOOG but not YHOO",
		`//broker[//stock/code/text() = "GOOG" and not(//stock/code/text() = "YHOO")]/name`)

	// Example 2.1: brokers of US clients trading on NASDAQ.
	show(cluster, "brokers of US clients on NASDAQ",
		`client[country/text() = "US"]/broker[market/name/text() = "NASDAQ"]/name`)

	// The §2.2 normal form of Example 2.1, as the engine normalizes it.
	nf, err := paxq.NormalForm(`client[country/text() = "US"]/broker[market/name/text() = "NASDAQ"]/name`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("normal form (Example 2.1):\n  %s\n\n", nf)

	// Compare the two algorithms on the same query.
	fmt.Println("algorithm comparison on Q':")
	fmt.Printf("  %-18s %-7s %-7s %-10s %-10s\n", "algorithm", "stages", "visits", "sent", "received")
	for _, algo := range []string{"pax2", "pax3"} {
		_, stats, err := cluster.Query(`//broker[//stock/code/text() = "GOOG"]/name`,
			paxq.QueryOptions{Algorithm: algo, Annotations: true})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-18s %-7d %-7d %-10d %-10d\n",
			stats.Algorithm, stats.Stages, stats.MaxSiteVisits, stats.BytesSent, stats.BytesReceived)
	}
}

func show(cluster *paxq.Cluster, what, query string) {
	answers, err := cluster.Evaluate(query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s:\n", what)
	for _, a := range answers {
		fmt.Printf("  %s\n", a.Value)
	}
	fmt.Println()
}
