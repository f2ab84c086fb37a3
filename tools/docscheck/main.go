// Command docscheck is the documentation gate behind `make docs-check`.
// It enforces nine properties the repo's docs promise:
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
//  5. Every package-map row of ARCHITECTURE.md (a table row starting with
//     "| `internal/name`" or "| `cmd/name`") names a package that exists —
//     a deleted package cannot silently keep its row.
//  6. Every metric row of cmd/README.md (a table row starting with
//     "| `<binary>_name", for a cmd/<binary> that exists) names a metric
//     that binary's sources emit — a deleted metric cannot silently keep
//     its documentation.
//  7. Every backticked `pkg.Ident` or `pkg.Type.Member` in README.md,
//     ARCHITECTURE.md, cmd/README.md or tools/README.md whose pkg is an
//     internal/* or cmd/* package or the root package paxq, and whose
//     Ident is exported, names a declaration of that package (and Member
//     a method or field of Type) — a deleted or renamed identifier cannot
//     silently keep its citation.
//  8. Every field of paxq.ClusterOptions appears, backticked, in the first
//     column of ARCHITECTURE.md's "Options and what justifies them" table,
//     and every backticked name in that column is such a field or a
//     "-name" flag that cmd/paxserve defines — a deleted option cannot
//     keep its row, and a new option cannot skip the table.
//  9. Every "-name" passed to a cmd/* binary on a command line of a fenced
//     block in README.md or cmd/README.md, or of a code block in a cmd/*
//     package comment, is a flag that binary defines, and so is every
//     "-name" in the prose of a cmd/* package comment — a deleted flag
//     cannot silently live on in an example.
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
	problems = append(problems, checkStalePackageRows()...)
	problems = append(problems, checkStaleMetricRows()...)
	problems = append(problems, checkStaleIdents()...)
	problems = append(problems, checkOptionsTable()...)
	problems = append(problems, checkCommandExamples()...)
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

// binarySources maps each cmd/* binary to the concatenated text of its
// non-test sources, plus any problem reading them.
func binarySources() (map[string]string, []string) {
	files, err := filepath.Glob("cmd/*/*.go")
	if err != nil {
		return nil, []string{err.Error()}
	}
	srcs := map[string]string{}
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
		srcs[filepath.Base(filepath.Dir(f))] += string(src)
	}
	return srcs, out
}

// binaryFlags maps each cmd/* binary to the flags its non-test sources
// define, plus any problem reading them.
func binaryFlags() (map[string]map[string]bool, []string) {
	srcs, out := binarySources()
	flags := map[string]map[string]bool{}
	for binary, src := range srcs {
		flags[binary] = map[string]bool{}
		for _, m := range flagDef.FindAllStringSubmatch(src, -1) {
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

// packageRow captures the package a table row of ARCHITECTURE.md's package
// map names in its first cell: "| `internal/name` | role |".
var packageRow = regexp.MustCompile("^\\|\\s*`((?:internal|cmd)/[^`/]+)`\\s*\\|")

// checkStalePackageRows is checkPackageMap in reverse: every package-map
// row must name a package directory that exists.
func checkStalePackageRows() []string {
	arch, err := os.ReadFile("ARCHITECTURE.md")
	if err != nil {
		return []string{fmt.Sprintf("ARCHITECTURE.md: %v", err)}
	}
	var out []string
	for _, line := range strings.Split(string(arch), "\n") {
		m := packageRow.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if fi, err := os.Stat(m[1]); err != nil || !fi.IsDir() {
			out = append(out, fmt.Sprintf("ARCHITECTURE.md's package map names %s, which does not exist", m[1]))
		}
	}
	sort.Strings(out)
	return out
}

// metricRow captures the metric a table row of cmd/README.md names in its
// first cell, "| `binary_name_total` | meaning |" or with a label set or
// a "(gauge)" note after the name, and the binary its prefix names.
var metricRow = regexp.MustCompile("^\\|\\s*`(([a-z][a-z0-9]*)_[a-z0-9_]+)")

// checkStaleMetricRows requires every metric row of cmd/README.md whose
// prefix names a cmd/* binary to name a metric that binary's non-test
// sources contain.
func checkStaleMetricRows() []string {
	guide, err := os.ReadFile("cmd/README.md")
	if err != nil {
		return []string{fmt.Sprintf("cmd/README.md: %v", err)}
	}
	srcs, out := binarySources()
	for _, line := range strings.Split(string(guide), "\n") {
		m := metricRow.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		src, ok := srcs[m[2]]
		if ok && !strings.Contains(src, m[1]) {
			out = append(out, fmt.Sprintf("cmd/README.md documents metric %s, which cmd/%s does not emit", m[1], m[2]))
		}
	}
	sort.Strings(out)
	return out
}

// identDocs are the documents whose identifier citations rule 7 checks.
var identDocs = []string{"README.md", "ARCHITECTURE.md", "cmd/README.md", "tools/README.md"}

// identRef matches a backticked citation "`pkg.Ident`" or
// "`pkg.Type.Member`", optionally followed by a call's arguments.
var identRef = regexp.MustCompile("`([a-z][a-z0-9]*)\\.([A-Z][A-Za-z0-9_]*)(?:\\.([A-Za-z_][A-Za-z0-9_]*))?(?:\\([^`]*\\))?`")

// pkgDecls is what one package declares: its top-level names, and the
// methods and fields of each of its types.
type pkgDecls struct {
	names   map[string]bool
	members map[string]map[string]bool
}

// declsOf parses every Go file of dir, tests included.
func declsOf(dir string) (*pkgDecls, error) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	d := &pkgDecls{names: map[string]bool{}, members: map[string]map[string]bool{}}
	member := func(typ, name string) {
		if d.members[typ] == nil {
			d.members[typ] = map[string]bool{}
		}
		d.members[typ][name] = true
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					if decl.Recv == nil {
						d.names[decl.Name.Name] = true
						continue
					}
					if typ := recvType(decl.Recv.List[0].Type); typ != "" {
						member(typ, decl.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.ValueSpec:
							for _, n := range spec.Names {
								d.names[n.Name] = true
							}
						case *ast.TypeSpec:
							d.names[spec.Name.Name] = true
							for _, n := range fieldNames(spec.Type) {
								member(spec.Name.Name, n)
							}
						}
					}
				}
			}
		}
	}
	return d, nil
}

// recvType is the base type name of a method receiver.
func recvType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvType(e.X)
	case *ast.IndexExpr:
		return recvType(e.X)
	case *ast.IndexListExpr:
		return recvType(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}

// fieldNames lists the fields of a struct type or the methods of an
// interface type, embedded ones by their type name.
func fieldNames(e ast.Expr) []string {
	var list *ast.FieldList
	switch e := e.(type) {
	case *ast.StructType:
		list = e.Fields
	case *ast.InterfaceType:
		list = e.Methods
	default:
		return nil
	}
	var out []string
	for _, f := range list.List {
		for _, n := range f.Names {
			out = append(out, n.Name)
		}
		if len(f.Names) == 0 {
			if typ := recvType(f.Type); typ != "" {
				out = append(out, typ)
			} else if sel, ok := f.Type.(*ast.SelectorExpr); ok {
				out = append(out, sel.Sel.Name)
			}
		}
	}
	return out
}

// checkStaleIdents requires every backticked identifier citation of a repo
// package in the docs to name a declaration of that package. Citations of
// other packages (the standard library's, say) are not checked.
func checkStaleIdents() []string {
	dirs := map[string]string{}
	for _, root := range []string{"internal", "cmd"} {
		entries, _ := os.ReadDir(root) // a missing root declares no packages
		for _, e := range entries {
			if e.IsDir() {
				dirs[e.Name()] = filepath.Join(root, e.Name())
			}
		}
	}
	dirs["paxq"] = "." // the root package, not cmd/paxq's main

	decls := map[string]*pkgDecls{}
	var out []string
	for _, name := range identDocs {
		text, err := os.ReadFile(name)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			out = append(out, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, m := range identRef.FindAllStringSubmatch(line, -1) {
				pkg, ident, mem := m[1], m[2], m[3]
				dir, ok := dirs[pkg]
				if !ok {
					continue
				}
				d := decls[pkg]
				if d == nil {
					if d, err = declsOf(dir); err != nil {
						out = append(out, fmt.Sprintf("parse %s: %v", dir, err))
						d = &pkgDecls{}
					}
					decls[pkg] = d
				}
				ref := pkg + "." + ident
				switch {
				case !d.names[ident]:
					out = append(out, fmt.Sprintf("%s:%d cites %s, which %s does not declare", name, i+1, ref, dir))
				case mem != "" && d.members[ident] != nil && !d.members[ident][mem]:
					out = append(out, fmt.Sprintf("%s:%d cites %s.%s, but %s has no method or field %s", name, i+1, ref, mem, ref, mem))
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// optionsHead is the heading of ARCHITECTURE.md's options table section.
const optionsHead = "## Options and what justifies them"

// backticked captures every backticked name in a table cell.
var backticked = regexp.MustCompile("`([^`]+)`")

// clusterOptionFields lists the fields of the root package's
// ClusterOptions struct.
func clusterOptionFields() ([]string, error) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	var fields []string
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				if ts, ok := n.(*ast.TypeSpec); ok && ts.Name.Name == "ClusterOptions" {
					fields = fieldNames(ts.Type)
				}
				return fields == nil
			})
		}
	}
	if fields == nil {
		return nil, fmt.Errorf("the root package declares no ClusterOptions")
	}
	return fields, nil
}

// optionsColumn returns the backticked names in the first column of the
// table under optionsHead, header row excluded.
func optionsColumn(arch string) ([]string, error) {
	_, section, ok := strings.Cut(arch, "\n"+optionsHead+"\n")
	if !ok {
		return nil, fmt.Errorf("ARCHITECTURE.md has no %q section", optionsHead)
	}
	var names []string
	rows := 0
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "## ") {
			break
		}
		if !strings.HasPrefix(line, "|") {
			if rows > 0 {
				break // the table has ended
			}
			continue
		}
		rows++
		cell, _, _ := strings.Cut(line[1:], "|")
		if rows == 1 || strings.Trim(cell, "- :") == "" {
			continue // header and separator rows
		}
		for _, m := range backticked.FindAllStringSubmatch(cell, -1) {
			names = append(names, m[1])
		}
	}
	if rows == 0 {
		return nil, fmt.Errorf("ARCHITECTURE.md's %q section has no table", optionsHead)
	}
	return names, nil
}

// checkOptionsTable requires every paxq.ClusterOptions field to have a
// row in ARCHITECTURE.md's options table, and every name in the table's
// first column to be such a field or a flag cmd/paxserve defines.
func checkOptionsTable() []string {
	fields, err := clusterOptionFields()
	if err != nil {
		return []string{err.Error()}
	}
	arch, err := os.ReadFile("ARCHITECTURE.md")
	if err != nil {
		return []string{fmt.Sprintf("ARCHITECTURE.md: %v", err)}
	}
	names, err := optionsColumn(string(arch))
	if err != nil {
		return []string{err.Error()}
	}
	flags, out := binaryFlags()
	isField := map[string]bool{}
	for _, f := range fields {
		isField[f] = true
	}
	listed := map[string]bool{}
	for _, n := range names {
		listed[n] = true
		flag, isFlag := strings.CutPrefix(n, "-")
		switch {
		case isFlag && !flags["paxserve"][flag]:
			out = append(out, fmt.Sprintf("ARCHITECTURE.md's options table names %s, which cmd/paxserve does not define", n))
		case !isFlag && !isField[n]:
			out = append(out, fmt.Sprintf("ARCHITECTURE.md's options table names %s, which is not a paxq.ClusterOptions field", n))
		}
	}
	for _, f := range fields {
		if !listed[f] {
			out = append(out, fmt.Sprintf("paxq.ClusterOptions field %s has no row in ARCHITECTURE.md's options table", f))
		}
	}
	sort.Strings(out)
	return out
}

// cmdFlag matches a flag argument (-name, --name or -name=value, but not
// "-" or a negative number), and proseFlag a "-name" mention in text.
var (
	cmdFlag   = regexp.MustCompile(`^--?([A-Za-z][A-Za-z0-9-]*)`)
	proseFlag = regexp.MustCompile(`(?:^|[\s(\x60])-([A-Za-z][A-Za-z0-9-]*)`)
)

// continued is lines[i] joined with the lines its trailing backslashes
// continue it onto.
func continued(lines []string, i int) string {
	line := lines[i]
	for ; strings.HasSuffix(line, "\\") && i+1 < len(lines); i++ {
		line = strings.TrimSuffix(line, "\\") + " " + lines[i+1]
	}
	return line
}

// staleCommandFlags reports, for each command of a shell line that runs
// a cmd/* binary (by any path, or through go run), every flag it passes
// that the binary does not define. A continuation line alone starts with
// a flag, not a binary, so it is never checked twice.
func staleCommandFlags(where, line string, flags map[string]map[string]bool) []string {
	if i := strings.Index(" "+line, " #"); i >= 0 {
		line = line[:i] // a comment
	}
	var out []string
	for _, cmd := range strings.FieldsFunc(line, func(r rune) bool { return r == '|' || r == '&' || r == ';' }) {
		words := strings.Fields(cmd)
		for len(words) > 0 && strings.Contains(words[0], "=") {
			words = words[1:] // VAR=value prefixes
		}
		if len(words) > 2 && words[0] == "go" && words[1] == "run" {
			words = words[2:]
		}
		if len(words) == 0 || flags[filepath.Base(words[0])] == nil {
			continue
		}
		binary := filepath.Base(words[0])
		for _, arg := range words[1:] {
			if m := cmdFlag.FindStringSubmatch(arg); m != nil && !flags[binary][m[1]] {
				out = append(out, fmt.Sprintf("%s runs %s with -%s, which it does not define", where, binary, m[1]))
			}
		}
	}
	return out
}

// checkCommandExamples requires the command examples of the guides and of
// the cmd/* package comments, and the flags the package comments' prose
// names, to use only flags the binaries define.
func checkCommandExamples() []string {
	flags, out := binaryFlags()
	for _, name := range []string{"README.md", "cmd/README.md"} {
		text, err := os.ReadFile(name)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			out = append(out, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		lines := strings.Split(string(text), "\n")
		fenced := false
		for i, line := range lines {
			if strings.HasPrefix(line, "```") {
				fenced = !fenced
			} else if fenced {
				out = append(out, staleCommandFlags(fmt.Sprintf("%s:%d", name, i+1), continued(lines, i), flags)...)
			}
		}
	}
	files, _ := filepath.Glob("cmd/*/*.go")
	for _, f := range files {
		file, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.PackageClauseOnly|parser.ParseComments)
		if err != nil || file.Doc == nil {
			continue // a parse error is the build's to report
		}
		binary, where := filepath.Base(filepath.Dir(f)), f+" package comment"
		lines := strings.Split(file.Doc.Text(), "\n")
		for i, line := range lines {
			if strings.HasPrefix(line, "\t") { // gofmt indents code blocks with a tab
				out = append(out, staleCommandFlags(where, continued(lines, i), flags)...)
				continue
			}
			for _, m := range proseFlag.FindAllStringSubmatch(line, -1) {
				if !flags[binary][m[1]] {
					out = append(out, fmt.Sprintf("%s names -%s, which %s does not define", where, m[1], binary))
				}
			}
		}
	}
	sort.Strings(out)
	return out
}
