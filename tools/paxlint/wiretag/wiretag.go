// Package wiretag enforces the wire-codec discipline of the hand-written
// binary protocol (internal/pax/wiremsg.go):
//
//   - every dist.MsgTag constant is returned by exactly one WireTag
//     method — tags are part of the protocol, and a duplicated or orphaned
//     tag silently breaks frame dispatch;
//   - every type with a WireTag method carries the full codec triple:
//     AppendBinary AND DecodeBinary (an encode/decode pair that drifts
//     apart corrupts peers, not itself);
//   - every type with an AppendBinary/DecodeBinary pair declares a
//     WireTag — a tagless message can be encoded but never dispatched;
//   - every tagged message type is registered with dist.RegisterBinary in
//     an init function, so the decode side can construct it;
//   - encoding/gob is imported nowhere: a reflection-driven encoding is
//     the first step of an untyped side channel around the tagged codec,
//     whose bytes are the unit of the paper's traffic guarantee.
package wiretag

import (
	"go/ast"
	"strings"

	"paxq/tools/paxlint/analysis"
)

// Analyzer is the wiretag invariant suite.
var Analyzer = &analysis.Analyzer{
	Name: "wiretag",
	Doc:  "check wire-message tag uniqueness, encode/decode pair sync, registration, and the encoding/gob import ban",
	Run:  run,
}

// msgType accumulates what the package declares about one message type.
type msgType struct {
	wireTagPos ast.Node // the WireTag method, if any
	tag        string   // the tag expression WireTag returns
	hasAppend  bool
	hasDecode  bool
	registered bool // dist.RegisterBinary
	appendPos  ast.Node
	decodePos  ast.Node
}

func run(pass *analysis.Pass) error {
	checkGobImports(pass)

	types := make(map[string]*msgType)
	get := func(name string) *msgType {
		if types[name] == nil {
			types[name] = &msgType{}
		}
		return types[name]
	}
	var tagConsts []*ast.Ident // declared dist.MsgTag constants, in order

	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				tagConsts = append(tagConsts, msgTagConsts(d)...)
			case *ast.FuncDecl:
				if d.Recv != nil {
					recordMethod(get, d)
					continue
				}
				if d.Name.Name == "init" {
					for _, name := range registeredTypes(d) {
						get(name).registered = true
					}
				}
			}
		}
	}

	// No wire-message declarations in this package: only the import ban
	// applies (already checked above).
	if len(types) == 0 && len(tagConsts) == 0 {
		return nil
	}

	// Tag uniqueness: each tag expression must back exactly one message.
	tagUsers := make(map[string][]string)
	for name, m := range types {
		if m.tag != "" {
			tagUsers[m.tag] = append(tagUsers[m.tag], name)
		}
	}
	for name, m := range types {
		if m.wireTagPos != nil {
			if users := tagUsers[m.tag]; len(users) > 1 {
				pass.Reportf(m.wireTagPos.Pos(), "wire tag %s is returned by %d message types (%s): tags must be unique", m.tag, len(users), strings.Join(sortedCopy(users), ", "))
			}
			if !m.hasAppend || !m.hasDecode {
				pass.Reportf(m.wireTagPos.Pos(), "message %s has WireTag but an incomplete encode/decode pair (AppendBinary=%v, DecodeBinary=%v)", name, m.hasAppend, m.hasDecode)
			}
			if !m.registered {
				pass.Reportf(m.wireTagPos.Pos(), "message %s is never registered with dist.RegisterBinary in an init function", name)
			}
		} else if m.hasAppend || m.hasDecode {
			pos := m.appendPos
			if pos == nil {
				pos = m.decodePos
			}
			pass.Reportf(pos.Pos(), "type %s has a binary encode/decode pair but no WireTag method: a tagless wire message cannot be dispatched", name)
		}
	}

	// Orphaned tag constants: declared but never returned by a WireTag.
	for _, c := range tagConsts {
		if strings.HasPrefix(c.Name, "_") {
			continue
		}
		if len(tagUsers[c.Name]) == 0 {
			pass.Reportf(c.Pos(), "wire tag constant %s is declared but returned by no WireTag method", c.Name)
		}
	}
	return nil
}

// checkGobImports flags encoding/gob imports.
func checkGobImports(pass *analysis.Pass) {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			if imp.Path.Value == `"encoding/gob"` {
				pass.Reportf(imp.Pos(), "encoding/gob imported: all wire traffic must flow through the tagged binary codec")
			}
		}
	}
}

// msgTagConsts returns the constant names of a const declaration whose
// spec type is (or elides from) dist.MsgTag.
func msgTagConsts(d *ast.GenDecl) []*ast.Ident {
	if d.Tok.String() != "const" {
		return nil
	}
	var out []*ast.Ident
	isMsgTag := false
	for _, spec := range d.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		if vs.Type != nil {
			isMsgTag = isSelector(vs.Type, "MsgTag")
		} else if vs.Values != nil {
			// An explicit untyped value starts a new run; only bare specs
			// inside an iota block inherit the previous spec's type.
			isMsgTag = false
		}
		if isMsgTag {
			out = append(out, vs.Names...)
		}
	}
	return out
}

// recordMethod folds one method declaration into the message table.
func recordMethod(get func(string) *msgType, d *ast.FuncDecl) {
	recv := receiverTypeName(d)
	if recv == "" {
		return
	}
	switch d.Name.Name {
	case "WireTag":
		m := get(recv)
		m.wireTagPos = d.Name
		m.tag = returnedTag(d)
	case "AppendBinary":
		m := get(recv)
		m.hasAppend = true
		m.appendPos = d.Name
	case "DecodeBinary":
		m := get(recv)
		m.hasDecode = true
		m.decodePos = d.Name
	}
}

// returnedTag extracts the expression returned by a WireTag body as a
// string key — an identifier for the usual `return tagFoo`, the literal
// text otherwise, so duplicated literal tags collide too.
func returnedTag(d *ast.FuncDecl) string {
	if d.Body == nil {
		return ""
	}
	for _, stmt := range d.Body.List {
		ret, ok := stmt.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != 1 {
			continue
		}
		return exprKey(ret.Results[0])
	}
	return ""
}

// registeredTypes extracts the type names registered by
// dist.RegisterBinary(func() dist.BinaryMessage { return new(T) }) (or
// &T{}) calls in an init body.
func registeredTypes(d *ast.FuncDecl) []string {
	var out []string
	ast.Inspect(d.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isSelector(call.Fun, "RegisterBinary") || len(call.Args) != 1 {
			return true
		}
		lit, ok := call.Args[0].(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			switch e := m.(type) {
			case *ast.CallExpr: // new(T)
				if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "new" && len(e.Args) == 1 {
					if t, ok := e.Args[0].(*ast.Ident); ok {
						out = append(out, t.Name)
					}
				}
			case *ast.CompositeLit: // &T{} / T{}
				if t, ok := e.Type.(*ast.Ident); ok {
					out = append(out, t.Name)
				}
			}
			return true
		})
		return true
	})
	return out
}

// receiverTypeName unwraps *T / T receivers to T.
func receiverTypeName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) != 1 {
		return ""
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// isSelector reports whether e is an identifier or selector whose final
// name is name (MsgTag matches both MsgTag and dist.MsgTag).
func isSelector(e ast.Expr, name string) bool {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name == name
	case *ast.SelectorExpr:
		return x.Sel.Name == name
	}
	return false
}

// exprKey renders small expressions deterministically for map keys.
func exprKey(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprKey(x.X) + "." + x.Sel.Name
	case *ast.BasicLit:
		return x.Value
	case *ast.CallExpr:
		return exprKey(x.Fun) + "(…)"
	default:
		return "?"
	}
}

func sortedCopy(s []string) []string {
	out := append([]string(nil), s...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
