// Command other is a second fixture binary with a flag tool lacks.
package main

import (
	"flag"
	"fmt"
)

var verbose = flag.Bool("verbose", false, "fixture flag")

func main() {
	flag.Parse()
	fmt.Println(*verbose)
}
