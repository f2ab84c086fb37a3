package wiretag_test

import (
	"testing"

	"paxq/tools/paxlint/analysistest"
	"paxq/tools/paxlint/wiretag"
)

func TestWiretag(t *testing.T) {
	analysistest.Run(t, "testdata", wiretag.Analyzer,
		"paxq/internal/pax",
		"paxq/internal/sidechannel",
	)
}
