// Command other emits the metric its documented row names.
package main

import "fmt"

func main() { fmt.Println("other_cache_hits_total 0") }
