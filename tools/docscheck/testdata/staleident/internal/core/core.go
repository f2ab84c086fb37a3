// Package core declares what the fixture's docs cite.
package core

// Thing is a cited type.
type Thing struct {
	// Field is a cited field.
	Field int
}

// Method is a cited method.
func (Thing) Method() {}

// Present is a cited function.
func Present() {}
