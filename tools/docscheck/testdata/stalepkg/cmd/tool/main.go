// Command tool is the fixture's mapped binary; its row is not stale.
package main

func main() {}
