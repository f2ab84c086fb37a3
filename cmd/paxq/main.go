// Command paxq evaluates XPath queries over fragmented XML documents,
// locally or against a distributed deployment of paxsite servers.
//
// Local mode — fragment an XML file in-process and query it:
//
//	paxq -file data.xml -frags 6 -sites 3 -query '//person/name' -stats
//	paxq -file data.xml -cut '//site' -query '//annotation' -algo pax3 -xa
//
// Remote mode — coordinate paxsite servers over TCP:
//
//	paxq -manifest frags/manifest.json \
//	     -site '0=127.0.0.1:7001' -site '1,2=127.0.0.1:7002' \
//	     -query '//person/name'
//
// In remote mode every fragment listed in the manifest must be mapped to a
// site address.
package main

import (
	"bufio"
	"cmp"
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"paxq"
	"paxq/internal/dist"
	"paxq/internal/fragment"
	"paxq/internal/pax"
)

func main() {
	file := flag.String("file", "", "XML document for local mode")
	manifest := flag.String("manifest", "", "manifest.json for remote mode")
	var sitesFlags multiFlag
	flag.Var(&sitesFlags, "site", "remote mode: 'fragIDs=host:port' mapping (repeatable)")
	query := flag.String("query", "", "XPath query (required unless -repl)")
	algo := flag.String("algo", "pax2", "algorithm: pax2 or pax3")
	xa := flag.Bool("xa", true, "use XPath annotations (§5 optimization)")
	stats := flag.Bool("stats", false, "print the evaluation cost profile")
	shipXML := flag.Bool("xml", false, "print serialized answer subtrees")
	frags := flag.Int("frags", 1, "local mode: number of random fragments")
	var cuts multiFlag
	flag.Var(&cuts, "cut", "local mode: XPath selecting cut elements (repeatable)")
	maxNodes := flag.Int("max-nodes", 0, "local mode: size-based fragmentation cap")
	sites := flag.Int("sites", 0, "local mode: number of sites (default one per fragment)")
	seed := flag.Int64("seed", 1, "fragmentation seed")
	boolMode := flag.Bool("bool", false, "evaluate as a Boolean query (ParBoX)")
	repl := flag.Bool("repl", false, "local mode: read queries interactively from stdin")
	flag.Parse()

	if *query == "" && !*repl {
		fmt.Fprintln(os.Stderr, "paxq: -query is required (or use -repl)")
		os.Exit(2)
	}
	switch {
	case *file != "" && *repl:
		runREPL(*file, *frags, cuts, *maxNodes, *sites, *seed)
	case *file != "":
		runLocal(*file, *query, *algo, *xa, *stats, *shipXML, *boolMode, *frags, cuts, *maxNodes, *sites, *seed)
	case *manifest != "":
		runRemote(*manifest, sitesFlags, *query, *algo, *xa, *stats, *shipXML)
	default:
		fmt.Fprintln(os.Stderr, "paxq: one of -file (local) or -manifest (remote) is required")
		os.Exit(2)
	}
}

// runREPL reads queries from stdin, one per line, against a local cluster.
// Lines starting with ':' are commands — ":algo pax3", ":xa on|off",
// ":stats on|off", ":bool <query>", ":quit".
func runREPL(file string, frags int, cuts []string, maxNodes, sites int, seed int64) {
	f, err := os.Open(file)
	if err != nil {
		fatal(err)
	}
	doc, err := paxq.ParseDocument(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	cluster, err := paxq.NewCluster(doc, paxq.ClusterOptions{
		Fragments: frags, CutPaths: cuts, MaxFragmentNodes: maxNodes, Sites: sites, Seed: seed,
	})
	if err != nil {
		fatal(err)
	}
	defer cluster.Close()
	fmt.Printf("paxq: %d nodes, %d fragments over %d sites. Enter XPath queries; :help for commands.\n",
		doc.Nodes(), cluster.Fragments(), cluster.Sites())

	algo, xa, stats := "pax2", true, true
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("paxq> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == ":quit" || line == ":q":
			return
		case line == ":help":
			fmt.Println("  <query>          evaluate an XPath query")
			fmt.Println("  :bool <query>    evaluate a Boolean query ([...]) via ParBoX")
			fmt.Println("  :algo pax2|pax3")
			fmt.Println("  :xa on|off       toggle XPath annotations")
			fmt.Println("  :stats on|off    toggle cost output")
			fmt.Println("  :quit")
		case strings.HasPrefix(line, ":algo "):
			algo = strings.TrimSpace(strings.TrimPrefix(line, ":algo "))
			fmt.Printf("algorithm = %s\n", algo)
		case strings.HasPrefix(line, ":xa "):
			xa = strings.TrimSpace(strings.TrimPrefix(line, ":xa ")) == "on"
			fmt.Printf("annotations = %v\n", xa)
		case strings.HasPrefix(line, ":stats "):
			stats = strings.TrimSpace(strings.TrimPrefix(line, ":stats ")) == "on"
			fmt.Printf("stats = %v\n", stats)
		case strings.HasPrefix(line, ":bool "):
			ok, err := cluster.EvaluateBool(strings.TrimSpace(strings.TrimPrefix(line, ":bool ")))
			if err != nil {
				fmt.Printf("error: %v\n", err)
			} else {
				fmt.Println(ok)
			}
		case strings.HasPrefix(line, ":"):
			fmt.Printf("unknown command %q; :help lists commands\n", line)
		default:
			answers, st, err := cluster.Query(line, paxq.QueryOptions{Algorithm: algo, Annotations: xa})
			if err != nil {
				fmt.Printf("error: %v\n", err)
				break
			}
			printAnswers(answers, false)
			if stats {
				printStats(st)
			}
		}
		fmt.Print("paxq> ")
	}
}

func runLocal(file, query, algo string, xa, stats, shipXML, boolMode bool, frags int, cuts []string, maxNodes, sites int, seed int64) {
	f, err := os.Open(file)
	if err != nil {
		fatal(err)
	}
	doc, err := paxq.ParseDocument(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	cluster, err := paxq.NewCluster(doc, paxq.ClusterOptions{
		Fragments:        frags,
		CutPaths:         cuts,
		MaxFragmentNodes: maxNodes,
		Sites:            sites,
		Seed:             seed,
	})
	if err != nil {
		fatal(err)
	}
	defer cluster.Close()

	if boolMode {
		ok, err := cluster.EvaluateBool(query)
		if err != nil {
			fatal(err)
		}
		fmt.Println(ok)
		return
	}
	answers, st, err := cluster.Query(query, paxq.QueryOptions{Algorithm: algo, Annotations: xa, ShipXML: shipXML})
	if err != nil {
		fatal(err)
	}
	printAnswers(answers, shipXML)
	if stats {
		printStats(st)
	}
}

func runRemote(manifestPath string, siteFlags []string, query, algo string, xa, stats, shipXML bool) {
	m, err := fragment.LoadManifest(manifestPath)
	if err != nil {
		fatal(err)
	}
	ft, err := m.Skeleton()
	if err != nil {
		fatal(err)
	}
	siteOf, addrs, err := parseSiteFlags(siteFlags, ft.Len())
	if err != nil {
		fatal(err)
	}
	topo, err := pax.NewTopology(ft, siteOf)
	if err != nil {
		fatal(err)
	}
	tcp := dist.NewTCP(addrs)
	defer tcp.Close()
	eng := pax.NewEngine(topo, tcp)

	alg, err := pax.ParseAlgorithm(algo)
	if err != nil {
		fatal(err)
	}
	res, answers, err := pax.RunAs(context.Background(), eng, query, pax.Options{Algorithm: alg, Annotations: xa, ShipXML: shipXML},
		func(a *pax.AnswerNode) paxq.Answer {
			return paxq.Answer{Fragment: int(a.Frag), Node: int(a.Node), Label: a.Label, Value: a.Value, XML: a.XML}
		},
		func(a, b paxq.Answer) int { return cmp.Compare(a.Node, b.Node) })
	if err != nil {
		fatal(err)
	}
	printAnswers(answers, shipXML)
	if stats {
		fmt.Printf("stages=%d maxVisits=%d sent=%dB recv=%dB wall=%v totalCompute=%v relevant=%d/%d\n",
			res.Stages, res.MaxVisits, res.BytesSent, res.BytesRecv, res.Wall, res.TotalCompute,
			res.RelevantFrags, res.TotalFrags)
	}
}

// parseSiteFlags reads remote mode's -site 'fragIDs=host:port' flags: the
// i-th flag is site i. Every fragment ID must lie in the manifest's
// 0..numFrags-1 and be mapped by one flag only.
func parseSiteFlags(specs []string, numFrags int) (map[fragment.FragID]dist.SiteID, map[dist.SiteID]string, error) {
	siteOf := make(map[fragment.FragID]dist.SiteID)
	addrs := make(map[dist.SiteID]string, len(specs))
	for i, spec := range specs {
		ids, addr, ok := strings.Cut(spec, "=")
		if !ok || addr == "" {
			return nil, nil, fmt.Errorf("bad -site %q, want 'fragIDs=host:port'", spec)
		}
		sid := dist.SiteID(i)
		addrs[sid] = addr
		for _, fs := range strings.Split(ids, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(fs))
			if err != nil {
				return nil, nil, fmt.Errorf("bad fragment id %q in -site %q", fs, spec)
			}
			if n < 0 || n >= numFrags {
				return nil, nil, fmt.Errorf("-site %q: fragment %d is outside the manifest's fragments 0..%d", spec, n, numFrags-1)
			}
			fid := fragment.FragID(n)
			if prev, dup := siteOf[fid]; dup {
				return nil, nil, fmt.Errorf("-site %q: fragment %d is already mapped by -site %q", spec, n, specs[prev])
			}
			siteOf[fid] = sid
		}
	}
	return siteOf, addrs, nil
}

func printAnswers(answers []paxq.Answer, shipXML bool) {
	for _, a := range answers {
		if shipXML && a.XML != "" {
			fmt.Println(a.XML)
			continue
		}
		fmt.Printf("<%s> %s\n", a.Label, a.Value)
	}
	fmt.Fprintf(os.Stderr, "%d answer(s)\n", len(answers))
}

func printStats(st *paxq.Stats) {
	fmt.Printf("algorithm=%s stages=%d maxVisits=%d sent=%dB recv=%dB wall=%v totalCompute=%v relevant=%d/%d\n",
		st.Algorithm, st.Stages, st.MaxSiteVisits, st.BytesSent, st.BytesReceived,
		st.Wall, st.TotalCompute, st.RelevantFrags, st.TotalFrags)
}

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "paxq: %v\n", err)
	os.Exit(1)
}
