// Command tool emits two of the three tool_* metrics its cmd/README.md
// section documents; checkStaleMetricRows must report the third.
package main

import "fmt"

func main() {
	fmt.Println("tool_requests_total 1")
	fmt.Printf("tool_site_visits_total{site=\"%d\"} 1\n", 0)
}
