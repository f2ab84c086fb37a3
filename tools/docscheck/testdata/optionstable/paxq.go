// Package paxq is the fixture stand-in for the real public package.
package paxq

// ClusterOptions has one field, Extra, that the options table omits.
type ClusterOptions struct {
	Fragments int
	Sites     int
	Extra     int
}
