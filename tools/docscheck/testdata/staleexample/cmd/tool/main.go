// Command tool is the fixture binary. Its package comment names -seed,
// which it defines, and -removed, which it does not:
//
//	tool -seed 1 -old
//	go test -run 'TestTool' ./cmd/tool
//	other -verbose
package main

import (
	"flag"
	"fmt"
)

var seed = flag.Int64("seed", 1, "fixture flag")

func main() {
	flag.Parse()
	fmt.Println(*seed)
}
