package arena

import (
	"math/bits"
	"sync"
)

// Bitset is a packed set over node indices [0, n). Bit i of word i/64 is
// set iff node i is in the set.
//
// Invariant: bits at positions >= the set's node count are zero. Every
// kernel below preserves it provided its inputs hold it (SetNot and Fill,
// the two that could set tail bits, take n explicitly and mask the last
// word), so OnesCount and ForEachSet never observe phantom members.
type Bitset []uint64

// NewBitset returns an empty set sized for n nodes.
func NewBitset(n int) Bitset {
	return make(Bitset, (n+63)/64)
}

// Set adds node i to the set.
func (b Bitset) Set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// Clear removes node i from the set.
func (b Bitset) Clear(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

// Get reports whether node i is in the set.
func (b Bitset) Get(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// Zero empties the set in place.
func (b Bitset) Zero() {
	for i := range b {
		b[i] = 0
	}
}

// Fill makes the set contain exactly the nodes [0, n).
func (b Bitset) Fill(n int) {
	for i := range b {
		b[i] = ^uint64(0)
	}
	b.maskTail(n)
}

// CopyFrom overwrites the set with x.
func (b Bitset) CopyFrom(x Bitset) { copy(b, x) }

// SetAnd stores x AND y into b.
func (b Bitset) SetAnd(x, y Bitset) {
	for i := range b {
		b[i] = x[i] & y[i]
	}
}

// SetOr stores x OR y into b.
func (b Bitset) SetOr(x, y Bitset) {
	for i := range b {
		b[i] = x[i] | y[i]
	}
}

// SetAndNot stores x AND NOT y into b.
func (b Bitset) SetAndNot(x, y Bitset) {
	for i := range b {
		b[i] = x[i] &^ y[i]
	}
}

// SetNot stores the complement of x within [0, n) into b.
func (b Bitset) SetNot(x Bitset, n int) {
	for i := range b {
		b[i] = ^x[i]
	}
	b.maskTail(n)
}

// fillRange adds the nodes [lo, hi) to the set, a word at a time.
func (b Bitset) fillRange(lo, hi int) {
	if lo >= hi {
		return
	}
	lw, hw := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << (uint(lo) & 63)
	hiMask := ^uint64(0) >> (63 - (uint(hi-1) & 63))
	if lw == hw {
		b[lw] |= loMask & hiMask
		return
	}
	b[lw] |= loMask
	for w := lw + 1; w < hw; w++ {
		b[w] = ^uint64(0)
	}
	b[hw] |= hiMask
}

// maskTail zeroes the bits at positions >= n in the last word.
func (b Bitset) maskTail(n int) {
	if rem := uint(n) & 63; rem != 0 && len(b) > 0 {
		b[len(b)-1] &= (1 << rem) - 1
	}
}

// OnesCount returns the number of set bits.
func (b Bitset) OnesCount() int {
	c := 0
	for _, w := range b {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether the set is non-empty.
func (b Bitset) Any() bool {
	for _, w := range b {
		if w != 0 {
			return true
		}
	}
	return false
}

// AnyInRange reports whether any member lies in [lo, hi). An empty or
// inverted range reports false.
func (b Bitset) AnyInRange(lo, hi int) bool {
	if lo >= hi {
		return false
	}
	lw, hw := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << (uint(lo) & 63)
	hiMask := ^uint64(0) >> (63 - (uint(hi-1) & 63))
	if lw == hw {
		return b[lw]&loMask&hiMask != 0
	}
	if b[lw]&loMask != 0 {
		return true
	}
	for w := lw + 1; w < hw; w++ {
		if b[w] != 0 {
			return true
		}
	}
	return b[hw]&hiMask != 0
}

// NextSet returns the least member in [lo, hi), or hi when there is
// none; it reads only the words the range covers. A caller walks the
// members of [lo, hi) in ascending order with
// for j := b.NextSet(lo, hi); j < hi; j = b.NextSet(j+1, hi).
func (b Bitset) NextSet(lo, hi int) int {
	if lo >= hi {
		return hi
	}
	wi, hw := lo>>6, (hi-1)>>6
	w := b[wi] &^ (1<<(uint(lo)&63) - 1)
	for w == 0 {
		if wi++; wi > hw {
			return hi
		}
		w = b[wi]
	}
	return min(wi<<6+bits.TrailingZeros64(w), hi)
}

// ForEachSet calls fn for every member, ascending.
func (b Bitset) ForEachSet(fn func(i int)) {
	for wi, w := range b {
		for w != 0 {
			fn(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// slabPool recycles the slabs evaluator visits carve their masks from.
var slabPool = sync.Pool{
	New: func() any { return new([]uint64) },
}

// maxSlabWords is the capacity a slab may retain in the pool (1 MiB, the
// frame pool's bound), so one visit to a giant fragment does not pin its
// slab forever.
const maxSlabWords = 1 << 17

// TakeSlab returns a pooled slab of at least words words for one visit to
// carve its masks from; its contents are whatever an earlier visit left
// there. The visit hands it back with PutSlab once no mask carved from it
// is read again, so a steady-state visit allocates none of its masks.
func TakeSlab(words int) *[]uint64 {
	bp := slabPool.Get().(*[]uint64)
	if cap(*bp) < words {
		*bp = make([]uint64, words)
	}
	return bp
}

// PutSlab returns a slab TakeSlab gave out to the pool.
func PutSlab(bp *[]uint64) {
	if cap(*bp) <= maxSlabWords {
		slabPool.Put(bp)
	}
}
