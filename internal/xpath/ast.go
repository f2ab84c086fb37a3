// Package xpath implements the XPath fragment X of the paper (§2.2):
//
//	Q := ε | A | * | Q//Q | Q/Q | Q[q]
//	q := Q | q/text() = str | q/val() op num | ¬q | q ∧ q | q ∨ q
//
// with the downward axes child (/), descendant-or-self (//), and self (ε,
// written "." in the concrete syntax). The package provides a lexer and
// parser for a readable ASCII syntax, the linear-time normalizer of §2.2,
// and compilation into the vector form used by every evaluation algorithm:
// SVect (prefixes of the selection path) and the qualifier predicate table
// (the QVect of the paper, in suffix form suited to bottom-up evaluation).
//
// Context convention. An absolute query (leading "/" or "//") is evaluated
// from a virtual document node above the root element, so "/sites/site"
// addresses a root labelled sites. A relative query (no leading slash) is
// evaluated at the root element itself, as in the paper's Example 2.1 where
// "client[...]/broker/name" is posed at the clientele root. A bare Boolean
// query "[q]" (ParBoX style) evaluates q at the root element.
package xpath

import (
	"fmt"
	"strings"
)

// Axis is a navigation axis of the fragment X.
type Axis uint8

// Axes. AxisSelf corresponds to the ε of the paper, AxisChild to "/", and
// AxisDesc to "//" (descendant-or-self followed by child, the standard
// XPath shorthand semantics).
const (
	AxisChild Axis = iota
	AxisDesc
	AxisSelf
)

func (a Axis) String() string {
	switch a {
	case AxisChild:
		return "/"
	case AxisDesc:
		return "//"
	case AxisSelf:
		return "."
	}
	return "?"
}

// NodeTest is a label test: a concrete tag or the wildcard "*". Node tests
// match element nodes only.
type NodeTest struct {
	Wild  bool
	Label string
}

// Matches reports whether the test accepts an element labelled label.
func (t NodeTest) Matches(label string) bool { return t.Wild || t.Label == label }

func (t NodeTest) String() string {
	if t.Wild {
		return "*"
	}
	return t.Label
}

// Step is one location step of a query: the axis connecting it to the
// previous step, a node test (ignored for self steps), and any qualifiers.
type Step struct {
	Axis  Axis
	Test  NodeTest
	Quals []Cond
}

// Query is a parsed query: a sequence of steps, absolute or relative.
type Query struct {
	Absolute bool
	Steps    []*Step
}

// TermKind distinguishes the value tests of the fragment X.
type TermKind uint8

// Value-test kinds: none, text() string comparison, val() numeric
// comparison.
const (
	TermNone TermKind = iota
	TermText
	TermVal
)

// CmpOp is a comparison operator for text()/val() tests.
type CmpOp uint8

// Comparison operators. Text comparisons admit CmpEq and CmpNe only.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

func (o CmpOp) String() string {
	switch o {
	case CmpEq:
		return "="
	case CmpNe:
		return "!="
	case CmpLt:
		return "<"
	case CmpLe:
		return "<="
	case CmpGt:
		return ">"
	case CmpGe:
		return ">="
	}
	return "?"
}

// CompareNum applies o to a pair of numbers.
func (o CmpOp) CompareNum(a, b float64) bool {
	switch o {
	case CmpEq:
		return a == b
	case CmpNe:
		return a != b
	case CmpLt:
		return a < b
	case CmpLe:
		return a <= b
	case CmpGt:
		return a > b
	case CmpGe:
		return a >= b
	}
	return false
}

// CompareStr applies o (CmpEq or CmpNe) to a pair of strings.
func (o CmpOp) CompareStr(a, b string) bool {
	if o == CmpNe {
		return a != b
	}
	return a == b
}

// Cond is a qualifier expression: the q of the grammar.
type Cond interface {
	isCond()
	// String renders the condition in parseable concrete syntax.
	String() string
}

// CondPath asserts the existence of a match of a relative path.
type CondPath struct {
	Path *Query // always relative
}

// CondCmp compares the text() or val() of the nodes reached by a relative
// path against a constant. A nil Path means the test applies to the context
// node itself (e.g. "[text()='goog']").
type CondCmp struct {
	Path *Query // relative; may be nil for a bare text()/val() test
	Term TermKind
	Op   CmpOp
	Str  string
	Num  float64
}

// CondNot is Boolean negation.
type CondNot struct{ X Cond }

// CondAnd is Boolean conjunction.
type CondAnd struct{ X, Y Cond }

// CondOr is Boolean disjunction.
type CondOr struct{ X, Y Cond }

func (*CondPath) isCond() {}
func (*CondCmp) isCond()  {}
func (*CondNot) isCond()  {}
func (*CondAnd) isCond()  {}
func (*CondOr) isCond()   {}

func (c *CondPath) String() string { return c.Path.String() }

func (c *CondCmp) String() string {
	var b strings.Builder
	if c.Path != nil {
		b.WriteString(c.Path.String())
		b.WriteString("/")
	}
	if c.Term == TermText {
		fmt.Fprintf(&b, "text() %s %q", c.Op, c.Str)
	} else {
		fmt.Fprintf(&b, "val() %s %g", c.Op, c.Num)
	}
	return b.String()
}

func (c *CondNot) String() string { return "not(" + c.X.String() + ")" }
func (c *CondAnd) String() string { return "(" + c.X.String() + " and " + c.Y.String() + ")" }
func (c *CondOr) String() string  { return "(" + c.X.String() + " or " + c.Y.String() + ")" }

// String renders the query in parseable concrete syntax.
func (q *Query) String() string {
	var b strings.Builder
	for i, s := range q.Steps {
		switch {
		case i == 0 && !q.Absolute:
			if s.Axis == AxisDesc {
				// A relative query may still begin with a descendant step
				// inside qualifiers: render the leading "//".
				b.WriteString("//")
			}
		case s.Axis == AxisDesc:
			b.WriteString("//")
		default:
			b.WriteString("/")
		}
		if s.Axis == AxisSelf {
			b.WriteString(".")
		} else {
			b.WriteString(s.Test.String())
		}
		for _, c := range s.Quals {
			b.WriteString("[")
			b.WriteString(c.String())
			b.WriteString("]")
		}
	}
	out := b.String()
	if q.Absolute && !strings.HasPrefix(out, "/") {
		out = "/" + out
	}
	return out
}

// HasQualifiers reports whether any step of the query (not descending into
// qualifier paths) carries a qualifier. The PaX algorithms skip the
// qualifier stage entirely for qualifier-free queries.
func (q *Query) HasQualifiers() bool {
	for _, s := range q.Steps {
		if len(s.Quals) > 0 {
			return true
		}
	}
	return false
}
