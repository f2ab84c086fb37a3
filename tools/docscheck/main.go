// Command docscheck is the documentation gate behind `make docs-check`.
// It enforces four properties the repo's docs promise:
//
//  1. Every exported identifier of the public paxq package (the repo
//     root) carries a doc comment — the API reference cannot silently
//     grow undocumented surface.
//  2. Every flag defined by the cmd/* binaries is mentioned (as "-name")
//     in the cmd/README.md operations guide or in ARCHITECTURE.md — the
//     guide cannot silently fall behind the binaries.
//  3. Every flag row of a binary's section in cmd/README.md (a table row
//     starting with "| `-name") names a flag that binary defines — a
//     deleted flag cannot silently keep its documentation.
//  4. ARCHITECTURE.md's package map names every internal/* and cmd/*
//     package that exists — new subsystems must be mapped.
//
// Run from the repository root:
//
//	go run ./tools/docscheck
//
// Exits non-zero listing every violation.
package main

import (
	"fmt"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

func main() {
	var problems []string
	problems = append(problems, checkPublicDocs()...)
	problems = append(problems, checkFlagCoverage()...)
	problems = append(problems, checkStaleFlagRows()...)
	problems = append(problems, checkPackageMap()...)
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "docscheck: "+p)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("docscheck: ok")
}

// checkPublicDocs parses the root package and reports exported
// identifiers (types, funcs, methods, grouped consts/vars) without doc
// comments.
func checkPublicDocs() []string {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return []string{fmt.Sprintf("parse root package: %v", err)}
	}
	pkg, ok := pkgs["paxq"]
	if !ok {
		return []string{"root package paxq not found (run from the repo root)"}
	}
	d := doc.New(pkg, "paxq", 0)
	var out []string
	missing := func(kind, name, docText string) {
		if strings.TrimSpace(docText) == "" {
			out = append(out, fmt.Sprintf("exported %s %s has no doc comment", kind, name))
		}
	}
	for _, v := range append(append([]*doc.Value{}, d.Consts...), d.Vars...) {
		for _, name := range v.Names {
			if ast.IsExported(name) {
				missing("value", name, v.Doc)
				break // one comment documents the whole grouped decl
			}
		}
	}
	for _, t := range d.Types {
		if ast.IsExported(t.Name) {
			missing("type", t.Name, t.Doc)
		}
		for _, m := range t.Methods {
			if ast.IsExported(m.Name) {
				missing("method", t.Name+"."+m.Name, m.Doc)
			}
		}
		for _, f := range t.Funcs {
			if ast.IsExported(f.Name) {
				missing("func", f.Name, f.Doc)
			}
		}
	}
	for _, f := range d.Funcs {
		if ast.IsExported(f.Name) {
			missing("func", f.Name, f.Doc)
		}
	}
	sort.Strings(out)
	return out
}

// flagDef matches the flag definitions the binaries use: typed
// flag.String/Bool/... calls and flag.Var registrations.
var flagDef = regexp.MustCompile(`flag\.(?:String|Bool|Int64|Int|Float64|Duration)\(\s*"([^"]+)"|flag\.Var\([^,]+,\s*"([^"]+)"`)

// binaryFlags maps each cmd/* binary to the flags its non-test sources
// define, plus any problem reading them.
func binaryFlags() (map[string]map[string]bool, []string) {
	files, err := filepath.Glob("cmd/*/*.go")
	if err != nil {
		return nil, []string{err.Error()}
	}
	flags := map[string]map[string]bool{}
	var out []string
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			out = append(out, fmt.Sprintf("%s: %v", f, err))
			continue
		}
		binary := filepath.Base(filepath.Dir(f))
		if flags[binary] == nil {
			flags[binary] = map[string]bool{}
		}
		for _, m := range flagDef.FindAllStringSubmatch(string(src), -1) {
			name := m[1]
			if name == "" {
				name = m[2]
			}
			flags[binary][name] = true
		}
	}
	return flags, out
}

// checkFlagCoverage extracts every flag of every cmd/* binary and
// requires "-name" to appear in cmd/README.md or ARCHITECTURE.md.
func checkFlagCoverage() []string {
	guide, err := os.ReadFile("cmd/README.md")
	if err != nil {
		return []string{fmt.Sprintf("cmd/README.md: %v", err)}
	}
	arch, err := os.ReadFile("ARCHITECTURE.md")
	if err != nil {
		return []string{fmt.Sprintf("ARCHITECTURE.md: %v", err)}
	}
	docs := string(guide) + string(arch)
	flags, out := binaryFlags()
	for binary, names := range flags {
		for name := range names {
			if !strings.Contains(docs, "-"+name) {
				out = append(out, fmt.Sprintf("flag -%s of %s is not documented in cmd/README.md or ARCHITECTURE.md", name, binary))
			}
		}
	}
	sort.Strings(out)
	return out
}

// sectionHead matches the heading of one binary's section in
// cmd/README.md: "## paxserve — HTTP/JSON query serving".
var sectionHead = regexp.MustCompile(`^## (\S+) —`)

// flagRow captures the first cell of a table row documenting flags,
// "| `-name ARG` | meaning |"; a pipe escaped as \| stays in the cell.
var flagRow = regexp.MustCompile("^\\|\\s*(`-(?:[^|\\\\]|\\\\.)*)\\|")

// flagName finds every flag a flag-row cell names.
var flagName = regexp.MustCompile("`-([A-Za-z0-9][A-Za-z0-9-]*)")

// checkStaleFlagRows is checkFlagCoverage in reverse: inside each
// "## <binary> —" section of cmd/README.md, every flag row must name
// flags that cmd/<binary> defines.
func checkStaleFlagRows() []string {
	guide, err := os.ReadFile("cmd/README.md")
	if err != nil {
		return []string{fmt.Sprintf("cmd/README.md: %v", err)}
	}
	flags, out := binaryFlags()
	binary := ""
	for _, line := range strings.Split(string(guide), "\n") {
		if strings.HasPrefix(line, "## ") {
			binary = ""
			if m := sectionHead.FindStringSubmatch(line); m != nil {
				binary = m[1]
			}
			continue
		}
		m := flagRow.FindStringSubmatch(line)
		if binary == "" || m == nil {
			continue
		}
		for _, n := range flagName.FindAllStringSubmatch(m[1], -1) {
			if !flags[binary][n[1]] {
				out = append(out, fmt.Sprintf("cmd/README.md documents -%s under %s, which defines no such flag", n[1], binary))
			}
		}
	}
	sort.Strings(out)
	return out
}

// checkPackageMap requires ARCHITECTURE.md to name every internal/* and
// cmd/* package directory.
func checkPackageMap() []string {
	arch, err := os.ReadFile("ARCHITECTURE.md")
	if err != nil {
		return []string{fmt.Sprintf("ARCHITECTURE.md: %v", err)}
	}
	var out []string
	for _, root := range []string{"internal", "cmd"} {
		entries, err := os.ReadDir(root)
		if err != nil {
			out = append(out, fmt.Sprintf("%s: %v", root, err))
			continue
		}
		for _, e := range entries {
			if !e.IsDir() {
				continue
			}
			ref := root + "/" + e.Name()
			if !strings.Contains(string(arch), ref) && !strings.Contains(string(arch), "`"+e.Name()+"`") {
				out = append(out, fmt.Sprintf("package %s is missing from ARCHITECTURE.md's package map", ref))
			}
		}
	}
	sort.Strings(out)
	return out
}
