// Command tool defines -seed only; its cmd/README.md section also
// documents -verbose, which checkStaleFlagRows must report.
package main

import "flag"

var seed = flag.Int64("seed", 1, "fixture flag")

func main() { flag.Parse(); _ = seed }
