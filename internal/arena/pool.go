package arena

import (
	"strconv"
	"sync/atomic"

	"paxq/internal/xmltree"
)

// pool is the value store a tree's slot column points into: per entry, a
// string (a text node's character data or an element's string value — no
// node has both), the element's numeric value and whether it has one, and
// the element's attributes, as a struct of arrays.
//
// Entries are append-only and every version of a fragment shares one
// pool: an edit's successor claims the tail of the shared backing arrays
// with a compare-and-swap on claimed and appends only the entries its
// inserted nodes bring. A version reads only entries below its own
// length, which no later append writes, so readers of older versions
// never see the successor's writes. A successor that cannot claim the
// tail — a second successor of the same version, whose sibling has
// claimed it, or one whose entries would overflow the arrays' capacity —
// or one whose predecessor's dead entries outnumber its live ones,
// compacts the live entries into a fresh pool instead.
type pool struct {
	str   []string
	num   []float64
	numOK []bool
	attrs [][]xmltree.Attr
	// claimed is the number of entries of the shared backing arrays that
	// some version has claimed; every version appending into them starts
	// from a length equal to it.
	claimed *atomic.Int64
}

// newPool returns an empty pool with room for c entries.
func newPool(c int) pool {
	return pool{
		str:     make([]string, 0, c),
		num:     make([]float64, 0, c),
		numOK:   make([]bool, 0, c),
		attrs:   make([][]xmltree.Attr, 0, c),
		claimed: new(atomic.Int64),
	}
}

// Len returns the number of entries the pool holds for this version.
func (p *pool) Len() int { return len(p.str) }

// push appends one entry and returns its index. The caller owns the
// capacity it appends into: a fresh pool's, or the tail extend claimed.
func (p *pool) push(s string, num float64, ok bool, attrs []xmltree.Attr) int32 {
	p.str = append(p.str, s)
	p.num = append(p.num, num)
	p.numOK = append(p.numOK, ok)
	p.attrs = append(p.attrs, attrs)
	return int32(len(p.str) - 1)
}

// pushText appends a text node's entry.
func (p *pool) pushText(data string) int32 { return p.push(data, 0, false, nil) }

// pushElem appends an element's entry: its string value, the numeric
// value parsed from it, and its attributes.
func (p *pool) pushElem(v string, attrs []xmltree.Attr) int32 {
	f, ok := numOf(v)
	return p.push(v, f, ok, attrs)
}

// setValue sets entry s's string value and the numeric value parsed from
// it.
func (p *pool) setValue(s int32, v string) {
	p.str[s] = v
	p.num[s], p.numOK[s] = numOf(v)
}

// numOf parses v as xmltree.Node.NumValue does. A string that cannot
// begin a float (strconv.ParseFloat's syntax: a sign, a digit, a point,
// or the first letter of "inf" or "nan") is rejected before the parse,
// whose syntax error would copy it.
func numOf(v string) (float64, bool) {
	if v == "" {
		return 0, false
	}
	switch c := v[0]; {
	case '0' <= c && c <= '9', c == '+', c == '-', c == '.', c == 'i', c == 'I', c == 'n', c == 'N':
	default:
		return 0, false
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, false
	}
	return f, true
}

// carveAttrs appends attrs to buf and returns them as a slice of their
// own, nil when there are none. When buf lacks the room it is replaced by
// a fresh chunk of at least attrChunk attributes, so the backing array
// of a carved slice never moves and earlier slices stay valid.
func carveAttrs(buf *[]xmltree.Attr, attrs []xmltree.Attr) []xmltree.Attr {
	if len(attrs) == 0 {
		return nil
	}
	if len(*buf)+len(attrs) > cap(*buf) {
		*buf = make([]xmltree.Attr, 0, max(len(attrs), attrChunk))
	}
	k := len(*buf)
	*buf = append(*buf, attrs...)
	return (*buf)[k:len(*buf):len(*buf)]
}

// copyEntry appends a copy of entry s of src and returns its index.
func (p *pool) copyEntry(src *pool, s int32) int32 {
	return p.push(src.str[s], src.num[s], src.numOK[s], src.attrs[s])
}

// extend claims k more entries of p's arrays for a successor with live
// nodes: it returns p's pool, ready to append k entries in place, and
// true, or false when the successor must compact into a fresh pool —
// because p's dead entries plus the k new ones would outnumber the live
// nodes, the arrays lack the capacity, or another successor has claimed
// the tail. A successor that appends nothing shares p's entries as they
// are.
func (p *pool) extend(k, live int) (pool, bool) {
	l := p.Len()
	switch {
	case l+k > 2*live:
		return pool{}, false
	case k == 0:
		return *p, true
	case l+k > cap(p.str) || !p.claimed.CompareAndSwap(int64(l), int64(l+k)):
		return pool{}, false
	}
	return *p, true
}
