package ir

import "math/bits"

// BitSet is a fixed-capacity bit set used for dataflow facts.
type BitSet []uint64

// NewBitSet returns a bit set able to hold n bits.
func NewBitSet(n int) BitSet { return make(BitSet, (n+63)/64) }

// Set sets bit i.
func (b BitSet) Set(i int) { b[i>>6] |= 1 << uint(i&63) }

// Clear clears bit i.
func (b BitSet) Clear(i int) { b[i>>6] &^= 1 << uint(i&63) }

// Has reports whether bit i is set.
func (b BitSet) Has(i int) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }

// OrWith ors src into b and reports whether b changed.
func (b BitSet) OrWith(src BitSet) bool {
	changed := false
	for i, w := range src {
		if nw := b[i] | w; nw != b[i] {
			b[i] = nw
			changed = true
		}
	}
	return changed
}

// AndWith intersects src into b and reports whether b changed.
func (b BitSet) AndWith(src BitSet) bool {
	changed := false
	for i, w := range src {
		if nw := b[i] & w; nw != b[i] {
			b[i] = nw
			changed = true
		}
	}
	return changed
}

// CopyFrom overwrites b with src.
func (b BitSet) CopyFrom(src BitSet) { copy(b, src) }

// AndNotWith removes src's bits from b.
func (b BitSet) AndNotWith(src BitSet) {
	for i, w := range src {
		b[i] &^= w
	}
}

// Count returns the number of set bits.
func (b BitSet) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// ForEach calls fn for every set bit in ascending order.
func (b BitSet) ForEach(fn func(i int)) {
	for wi, w := range b {
		for w != 0 {
			i := bits.TrailingZeros64(w)
			fn(wi*64 + i)
			w &= w - 1
		}
	}
}

// Clone returns a copy.
func (b BitSet) Clone() BitSet {
	c := make(BitSet, len(b))
	copy(c, b)
	return c
}

// First returns the lowest set bit, or -1 if the set is empty.
func (b BitSet) First() int {
	for wi, w := range b {
		if w != 0 {
			return wi*64 + bits.TrailingZeros64(w)
		}
	}
	return -1
}
