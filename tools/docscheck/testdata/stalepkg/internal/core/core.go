// Package core is the fixture's mapped internal package; its row is not
// stale.
package core
