package main

import (
	"strings"
	"testing"
)

// one asserts that problems contains exactly one entry and that it
// mentions want.
func one(t *testing.T, problems []string, want string) {
	t.Helper()
	if len(problems) != 1 {
		t.Fatalf("got %d problems %q, want exactly 1", len(problems), problems)
	}
	if !strings.Contains(problems[0], want) {
		t.Fatalf("problem %q does not mention %q", problems[0], want)
	}
}

// none asserts a check came back clean.
func none(t *testing.T, problems []string) {
	t.Helper()
	if len(problems) != 0 {
		t.Fatalf("got problems %q, want none", problems)
	}
}

// TestCleanFixturePasses: a tree that keeps all four documentation
// promises produces no findings from any check.
func TestCleanFixturePasses(t *testing.T) {
	t.Chdir("testdata/clean")
	none(t, checkPublicDocs())
	none(t, checkFlagCoverage())
	none(t, checkStaleFlagRows())
	none(t, checkPackageMap())
}

// TestMissingDocCommentFails: an exported function of the public package
// without a doc comment is flagged by name, and the documented one is
// not.
func TestMissingDocCommentFails(t *testing.T) {
	t.Chdir("testdata/missingdoc")
	problems := checkPublicDocs()
	one(t, problems, "exported func Undocumented has no doc comment")
	for _, p := range problems {
		if strings.Contains(p, "Documented ") {
			t.Errorf("documented identifier flagged: %q", p)
		}
	}
}

// TestUndocumentedFlagFails: a cmd/* flag absent from both cmd/README.md
// and ARCHITECTURE.md is flagged with its binary's name.
func TestUndocumentedFlagFails(t *testing.T) {
	t.Chdir("testdata/missingflag")
	one(t, checkFlagCoverage(), "flag -verbose of tool is not documented")
}

// TestStaleFlagRowFails: a flag row in a binary's cmd/README.md section
// naming a flag that binary does not define is flagged, even when another
// binary defines a flag of that name; a row outside any binary's section
// and rows naming defined flags are not.
func TestStaleFlagRowFails(t *testing.T) {
	t.Chdir("testdata/staleflag")
	one(t, checkStaleFlagRows(), "documents -verbose under tool")
}

// TestMissingPackageMapEntryFails: a package directory missing from
// ARCHITECTURE.md's package map is flagged; the mapped one is not.
func TestMissingPackageMapEntryFails(t *testing.T) {
	t.Chdir("testdata/missingpkg")
	one(t, checkPackageMap(), "package internal/orphan is missing from ARCHITECTURE.md's package map")
}

// TestRealTreeIsClean runs all four checks against the actual repository
// root, mirroring what `make docs-check` gates.
func TestRealTreeIsClean(t *testing.T) {
	t.Chdir("../..")
	none(t, checkPublicDocs())
	none(t, checkFlagCoverage())
	none(t, checkStaleFlagRows())
	none(t, checkPackageMap())
}
