// Package paxq is the fixture stand-in for the real public package: every
// exported identifier carries a doc comment, so checkPublicDocs must
// report nothing.
package paxq

// Answer is a documented exported type.
type Answer int

// Count is a documented exported method.
func (a Answer) Count() int { return int(a) }

// Evaluate is a documented exported function.
func Evaluate(q string) (Answer, error) { return 0, nil }

// Documented constants share one doc comment for the grouped decl.
const (
	ModeFast = iota
	ModeSafe
)

// ClusterOptions is a documented exported struct whose every field has a
// row in ARCHITECTURE.md's options table.
type ClusterOptions struct {
	// Fragments is a documented field.
	Fragments int
	// Sites is a documented field.
	Sites int
}
