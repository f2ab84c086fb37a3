// Command paxfrag fragments an XML document for distributed deployment: it
// cuts the tree at selected elements and writes one XML file per fragment
// plus a manifest.json describing the fragment tree with its XPath
// annotations (§5). The output directory is what paxsite serves and what
// the paxq coordinator reads its fragment-tree skeleton from.
//
// Usage:
//
//	paxfrag -in data.xml -cut '//site' -out frags/
//	paxfrag -in data.xml -max-nodes 50000 -out frags/
//	paxfrag -in data.xml -frags 8 -seed 3 -out frags/
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"paxq/internal/fragment"
	"paxq/internal/xmltree"
)

func main() {
	in := flag.String("in", "", "input XML document (required)")
	out := flag.String("out", "", "output directory (required)")
	var cutPaths multiFlag
	flag.Var(&cutPaths, "cut", "XPath selecting cut elements (repeatable)")
	maxNodes := flag.Int("max-nodes", 0, "size-based fragmentation: max nodes per fragment")
	frags := flag.Int("frags", 0, "random fragmentation: number of fragments")
	seed := flag.Int64("seed", 1, "seed for random fragmentation")
	flag.Parse()

	if *in == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "paxfrag: -in and -out are required")
		os.Exit(2)
	}
	f, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	tree, err := xmltree.Parse(f)
	f.Close()
	if err != nil {
		fatal(err)
	}

	cuts, err := fragment.SelectCuts(tree, cutPaths, *maxNodes, *frags, *seed)
	if err != nil {
		fatal(err)
	}

	ft, err := fragment.Cut(tree, cuts)
	if err != nil {
		fatal(err)
	}
	if err := ft.Save(*out); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d fragments to %s\n", ft.Len(), *out)
	fmt.Printf("%-5s %-8s %-10s %-8s %s\n", "id", "parent", "nodes", "subfrags", "annotation")
	for _, fr := range ft.Frags {
		parent := "-"
		if fr.Parent != fragment.NoFrag {
			parent = fmt.Sprint(fr.Parent)
		}
		fmt.Printf("%-5d %-8s %-10d %-8d %s\n", fr.ID, parent, fr.Size(), fr.NumVirtuals(), strings.Join(fr.Annotation, "/"))
	}
}

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "paxfrag: %v\n", err)
	os.Exit(1)
}
