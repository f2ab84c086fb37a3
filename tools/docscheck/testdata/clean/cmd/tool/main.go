// Command tool is the fixture binary; its one flag has a row in its
// cmd/README.md section, so neither checkFlagCoverage nor
// checkStaleFlagRows may report anything.
package main

import "flag"

var seed = flag.Int64("seed", 1, "fixture flag")

func main() { flag.Parse(); _ = seed }
