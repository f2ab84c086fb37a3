// Command other defines -verbose, so its own section's row is not stale
// — and the same-named row under tool still is.
package main

import "flag"

var verbose = flag.Bool("verbose", false, "fixture flag")

func main() { flag.Parse(); _ = verbose }
