// Command paxserve is the fixture's serving binary; it defines no -gone
// flag.
package main

import (
	"flag"
	"fmt"
)

var (
	addr  = flag.String("addr", ":0", "fixture flag")
	frags = flag.Int("frags", 1, "fixture flag")
	sites = flag.Int("sites", 0, "fixture flag")
)

func main() {
	flag.Parse()
	fmt.Println(*addr, *frags, *sites)
}
