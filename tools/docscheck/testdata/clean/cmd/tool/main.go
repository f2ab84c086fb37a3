// Command tool is the fixture binary; its one flag and its one metric
// have rows in its cmd/README.md section, so neither checkFlagCoverage,
// checkStaleFlagRows nor checkStaleMetricRows may report anything.
package main

import (
	"flag"
	"fmt"
)

var seed = flag.Int64("seed", 1, "fixture flag")

func main() {
	flag.Parse()
	fmt.Printf("tool_requests_total %d\n", *seed)
}
