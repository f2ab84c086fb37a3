package main

import (
	"slices"
	"strings"
	"testing"

	"paxq/internal/fragment"
)

func TestParseFrags(t *testing.T) {
	for _, tc := range []struct {
		list string
		want []fragment.FragID
	}{
		{"all", []fragment.FragID{0, 1, 2}},
		{"1", []fragment.FragID{1}},
		{" 2 , 0", []fragment.FragID{2, 0}},
	} {
		got, err := parseFrags(tc.list, 3)
		if err != nil {
			t.Errorf("%q: %v", tc.list, err)
			continue
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%q: got %v, want %v", tc.list, got, tc.want)
		}
	}
}

func TestParseFragsRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		list string
		want string // a substring of the error, naming the flag
	}{
		{"repeated", "0,0,1", `-frags "0,0,1": fragment 0 is named twice`},
		{"negative", "-1", `-frags "-1": fragment -1 is outside`},
		{"out of manifest", "0,3", `-frags "0,3": fragment 3 is outside the manifest's fragments 0..2`},
		{"malformed", "0,x", `bad fragment id "x" in -frags "0,x"`},
		{"empty", "", `bad fragment id "" in -frags ""`},
		{"trailing comma", "0,", `bad fragment id "" in -frags "0,"`},
	} {
		_, err := parseFrags(tc.list, 3)
		if err == nil {
			t.Errorf("%s: %q accepted", tc.name, tc.list)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.want)
		}
	}
}
