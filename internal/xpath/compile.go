package xpath

import "fmt"

// Compiled is the vector form of a query used by every evaluation algorithm.
//
// Selection path (the SVect of §2.2): Sel is the list of prefixes of the
// selection path. Entry 0 is the empty prefix ε, true only at the virtual
// document node. A "//" in the path contributes its own carry entry (the
// paper's "q_j//" entries), so SVv[desc] = SVparent[desc] ∨ SVv[prev] — "v
// or an ancestor is reachable via the prefix before the //". A node is in
// the answer iff the last entry holds at it.
//
// Qualifiers (the QVect of §2.2): Preds is a flat table of path predicates
// in suffix form. QVv[p] means "a match of the suffix p starts at node v":
// v passes p's node test and value test, satisfies p's nested qualifier,
// and — when p has a continuation — some child (NextAxis child) or some
// strict descendant (NextAxis desc) u has QVu[p.Next]. Bottom-up evaluation
// therefore needs, per node and predicate, the three values the paper calls
// QV, QCV and QDV; see the parbox package.
type Compiled struct {
	Source string
	Query  *Query
	Sel    []SelEntry
	Preds  []Pred
}

// SelKind is the kind of a selection-vector entry.
type SelKind uint8

// Selection entry kinds: the ε prefix, a "//" carry entry, a location step.
const (
	SelRoot SelKind = iota
	SelDesc
	SelStep
)

// SelEntry is one prefix of the selection path.
type SelEntry struct {
	Kind SelKind
	Test NodeTest // SelStep only
	Qual QExpr    // SelStep only; nil when the step has no qualifier
}

// Pred is one suffix of a qualifier path.
type Pred struct {
	Test     NodeTest
	Qual     QExpr    // nested qualifier at this step; nil when absent
	Term     TermKind // value test applied at the matched node (last step)
	Op       CmpOp
	Str      string
	Num      float64
	NextAxis Axis // AxisSelf means no continuation
	Next     int  // predicate index of the continuation suffix
}

// HasNext reports whether the predicate has a continuation step.
func (p *Pred) HasNext() bool { return p.NextAxis != AxisSelf }

// Elem is what the row evaluator reads of an element node: its label, its
// string value and its numeric value (xmltree.Node.Value / NumValue
// semantics). *xmltree.Node satisfies it, and so does arena.Elem, a
// position in a fragment's columns, so the centralized oracle and the
// site's spine walk share one evaluator.
type Elem interface {
	Tag() string
	Value() string
	NumValue() (float64, bool)
}

// matchesElem evaluates the node test and value test of p at element n,
// ignoring the nested qualifier and continuation.
func matchesElem[E Elem](p *Pred, n E) bool {
	if !p.Test.Matches(n.Tag()) {
		return false
	}
	return EvalTermAt(n, p.Term, p.Op, p.Str, p.Num)
}

// EvalTermAt evaluates a text()/val() comparison at element n. TermNone is
// vacuously true.
func EvalTermAt[E Elem](n E, term TermKind, op CmpOp, str string, num float64) bool {
	switch term {
	case TermNone:
		return true
	case TermText:
		return op.CompareStr(n.Value(), str)
	case TermVal:
		v, ok := n.NumValue()
		return ok && op.CompareNum(v, num)
	}
	return false
}

// QExpr is a compiled qualifier: a Boolean combination over value tests on
// the context node (QTerm) and existential path anchors (QAnchor).
type QExpr interface{ isQExpr() }

// QTrue is the vacuous qualifier.
type QTrue struct{}

// QTerm is a text()/val() test on the context node itself.
type QTerm struct {
	Term TermKind
	Op   CmpOp
	Str  string
	Num  float64
}

// QAnchor asserts the existence of a node matching predicate Pred among the
// children (AxisChild) or strict descendants (AxisDesc) of the context node.
type QAnchor struct {
	Axis Axis
	Pred int
}

// QNot negates a qualifier.
type QNot struct{ X QExpr }

// QAnd conjoins qualifiers; an empty conjunction is true.
type QAnd struct{ Xs []QExpr }

// QOr disjoins qualifiers; an empty disjunction is false.
type QOr struct{ Xs []QExpr }

func (QTrue) isQExpr()    {}
func (*QTerm) isQExpr()   {}
func (*QAnchor) isQExpr() {}
func (*QNot) isQExpr()    {}
func (*QAnd) isQExpr()    {}
func (*QOr) isQExpr()     {}

// HasQualifiers reports whether any selection step carries a qualifier.
func (c *Compiled) HasQualifiers() bool {
	for _, e := range c.Sel {
		if e.Kind == SelStep && e.Qual != nil {
			return true
		}
	}
	return false
}

// AnswerEntry returns the index of the selection entry that designates
// answer nodes (the last entry).
func (c *Compiled) AnswerEntry() int { return len(c.Sel) - 1 }

// Compile parses and compiles src.
func Compile(src string) (*Compiled, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return CompileQuery(q, src)
}

// MustCompile is Compile, panicking on error.
func MustCompile(src string) *Compiled {
	c, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return c
}

// CompileQuery compiles a parsed query.
func CompileQuery(q *Query, src string) (*Compiled, error) {
	cp := &compiler{}
	sel, err := cp.compileSelection(q)
	if err != nil {
		return nil, err
	}
	return &Compiled{Source: src, Query: q, Sel: sel, Preds: cp.preds}, nil
}

type compiler struct {
	preds []Pred
}

// compileSelection builds the Sel entries. Relative queries are anchored at
// the root element by a synthesized wildcard first step (a relative query
// "client/name" behaves as "/*/client/name" where the root is the only
// depth-1 element); leading self steps of a relative query contribute their
// qualifiers to that synthesized step.
func (cp *compiler) compileSelection(q *Query) ([]SelEntry, error) {
	sel := []SelEntry{{Kind: SelRoot}}
	steps := q.Steps
	if !q.Absolute {
		rootStep := SelEntry{Kind: SelStep, Test: NodeTest{Wild: true}}
		var quals []QExpr
		for len(steps) > 0 && steps[0].Axis == AxisSelf {
			for _, c := range steps[0].Quals {
				quals = append(quals, cp.compileCond(c))
			}
			steps = steps[1:]
		}
		if len(quals) > 0 {
			rootStep.Qual = conj(quals)
		}
		// A relative query may start with a descendant step ("//a" in a
		// qualifier context): the descendant carry hangs off the root step.
		sel = append(sel, rootStep)
	}
	for i := 0; i < len(steps); i++ {
		s := steps[i]
		if s.Axis == AxisSelf {
			// Merge the self step's qualifiers into the preceding step
			// (the normalization rule combining consecutive ε[q]'s).
			last := &sel[len(sel)-1]
			if last.Kind != SelStep {
				return nil, fmt.Errorf("xpath: a self step may not follow %q at the start of an absolute path", "/")
			}
			var quals []QExpr
			if last.Qual != nil {
				quals = append(quals, last.Qual)
			}
			for _, c := range s.Quals {
				quals = append(quals, cp.compileCond(c))
			}
			if len(quals) > 0 {
				last.Qual = conj(quals)
			}
			continue
		}
		if s.Axis == AxisDesc {
			sel = append(sel, SelEntry{Kind: SelDesc})
		}
		e := SelEntry{Kind: SelStep, Test: s.Test}
		var quals []QExpr
		for _, c := range s.Quals {
			quals = append(quals, cp.compileCond(c))
		}
		if len(quals) > 0 {
			e.Qual = conj(quals)
		}
		sel = append(sel, e)
	}
	if len(sel) == 1 {
		return nil, fmt.Errorf("xpath: empty selection path")
	}
	return sel, nil
}

func conj(xs []QExpr) QExpr {
	if len(xs) == 1 {
		return xs[0]
	}
	return &QAnd{Xs: xs}
}

func (cp *compiler) compileCond(c Cond) QExpr {
	switch c := c.(type) {
	case *CondAnd:
		return &QAnd{Xs: []QExpr{cp.compileCond(c.X), cp.compileCond(c.Y)}}
	case *CondOr:
		return &QOr{Xs: []QExpr{cp.compileCond(c.X), cp.compileCond(c.Y)}}
	case *CondNot:
		return &QNot{X: cp.compileCond(c.X)}
	case *CondPath:
		return cp.compilePathCond(c.Path, nil)
	case *CondCmp:
		if c.Path == nil {
			return &QTerm{Term: c.Term, Op: c.Op, Str: c.Str, Num: c.Num}
		}
		return cp.compilePathCond(c.Path, c)
	}
	//paxlint:allow nopanic(unreachable: the parser produces only the condition kinds handled above)
	panic(fmt.Sprintf("xpath: unknown condition %T", c))
}

// compilePathCond compiles an existential relative path (with an optional
// terminal comparison) into a QExpr.
func (cp *compiler) compilePathCond(p *Query, cmp *CondCmp) QExpr {
	steps := p.Steps
	var selfQuals []QExpr
	for len(steps) > 0 && steps[0].Axis == AxisSelf {
		for _, q := range steps[0].Quals {
			selfQuals = append(selfQuals, cp.compileCond(q))
		}
		steps = steps[1:]
	}
	if len(steps) == 0 {
		// Pure self path: "[.]" or "[.[q]]" or "[.[q]/text()='x']".
		if cmp != nil {
			selfQuals = append(selfQuals, &QTerm{Term: cmp.Term, Op: cmp.Op, Str: cmp.Str, Num: cmp.Num})
		}
		if len(selfQuals) == 0 {
			return QTrue{}
		}
		return conj(selfQuals)
	}
	anchorAxis := steps[0].Axis // AxisChild or AxisDesc
	predIdx := cp.compileChain(steps, cmp)
	anchor := QExpr(&QAnchor{Axis: anchorAxis, Pred: predIdx})
	if len(selfQuals) > 0 {
		return conj(append(selfQuals, anchor))
	}
	return anchor
}

// compileChain compiles steps (first step's axis already consumed by the
// caller) into the predicate table and returns the index of the predicate
// for the full suffix.
func (cp *compiler) compileChain(steps []*Step, cmp *CondCmp) int {
	s := steps[0]
	var quals []QExpr
	for _, q := range s.Quals {
		quals = append(quals, cp.compileCond(q))
	}
	// Fold trailing self steps into this predicate.
	rest := steps[1:]
	for len(rest) > 0 && rest[0].Axis == AxisSelf {
		for _, q := range rest[0].Quals {
			quals = append(quals, cp.compileCond(q))
		}
		rest = rest[1:]
	}
	p := Pred{Test: s.Test, NextAxis: AxisSelf, Next: -1}
	if len(quals) > 0 {
		p.Qual = conj(quals)
	}
	if len(rest) == 0 {
		if cmp != nil {
			p.Term = cmp.Term
			p.Op = cmp.Op
			p.Str = cmp.Str
			p.Num = cmp.Num
		}
	} else {
		p.NextAxis = rest[0].Axis
		p.Next = cp.compileChain(rest, cmp)
	}
	cp.preds = append(cp.preds, p)
	return len(cp.preds) - 1
}
