package main

import (
	"strings"
	"testing"

	"paxq/internal/dist"
	"paxq/internal/fragment"
)

func TestParseSiteFlags(t *testing.T) {
	siteOf, addrs, err := parseSiteFlags([]string{"0=h:1", " 1 , 2=h:2"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := map[fragment.FragID]dist.SiteID{0: 0, 1: 1, 2: 1}
	if len(siteOf) != len(want) {
		t.Fatalf("siteOf = %v, want %v", siteOf, want)
	}
	for f, s := range want {
		if siteOf[f] != s {
			t.Errorf("fragment %d on site %d, want %d", f, siteOf[f], s)
		}
	}
	if len(addrs) != 2 || addrs[0] != "h:1" || addrs[1] != "h:2" {
		t.Errorf("addrs = %v, want site 0 at h:1 and site 1 at h:2", addrs)
	}
}

func TestParseSiteFlagsRejects(t *testing.T) {
	for _, tc := range []struct {
		name  string
		specs []string
		want  string // a substring of the error, naming the offending flag
	}{
		{"duplicate", []string{"0,1=h:1", "1,2=h:2"}, `-site "1,2=h:2": fragment 1 is already mapped by -site "0,1=h:1"`},
		{"out of range", []string{"0,1,2=h:1", "99=h:2"}, `-site "99=h:2": fragment 99 is outside`},
		{"negative", []string{"-1=h:1"}, `-site "-1=h:1": fragment -1 is outside`},
		{"no address", []string{"0,1,2"}, `bad -site "0,1,2"`},
		{"empty address", []string{"0,1,2="}, `bad -site "0,1,2="`},
		{"bad id", []string{"0,x=h:1"}, `bad fragment id "x" in -site "0,x=h:1"`},
	} {
		_, _, err := parseSiteFlags(tc.specs, 3)
		if err == nil {
			t.Errorf("%s: %v accepted", tc.name, tc.specs)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.want)
		}
	}
}
