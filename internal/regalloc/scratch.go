package regalloc

import "repro/internal/ir"

// Scratch holds grow-only buffers reused across the rounds of one Chaitin
// loop: the interference graph's adjacency slab and the coloring phase's
// per-variable work arrays. Rounds of the same run have similar variable
// counts, so reusing the buffers removes the per-round reallocation the
// loop otherwise pays. A zero Scratch is ready to use; a Scratch must not
// be shared between concurrent runs, and graphs built through it are only
// valid until the next round (retained graphs — a Prep's — use NewGraph).
type Scratch struct {
	words []uint64
	adj   []ir.BitSet
	bools []bool      // precolored, inG, removed
	ints  []int       // weighted degree, stack position, the stack itself
	triv  []uint64    // slab behind sets
	sets  []ir.BitSet // trivially-colorable variables still in G, per width
	prefs []int       // move-partner colors of the variable being colored

	// Work done by the allocate calls that used this scratch: variables
	// examined while picking pushes, and colorings attempted.
	scans, visits uint64
}

// grow returns buf resized to n zeroed elements, reallocating only when
// its capacity is short.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// rows3 carves three n-element rows out of a buffer of 3n elements.
func rows3[T any](buf []T, n int) (a, b, c []T) {
	return buf[0:n:n], buf[n : 2*n : 2*n], buf[2*n : 3*n : 3*n]
}

// bitRows carves k cleared rows of n bits each out of the grow-only slab.
func bitRows(slab *[]uint64, rows []ir.BitSet, k, n int) []ir.BitSet {
	wpr := (n + 63) / 64 // words per row
	*slab = grow(*slab, k*wpr)
	rows = grow(rows, k)
	for i := range rows {
		rows[i] = ir.BitSet((*slab)[i*wpr : (i+1)*wpr : (i+1)*wpr])
	}
	return rows
}

// graph carves an n-variable interference graph out of the scratch slab,
// clearing whatever the previous round left behind.
func (sc *Scratch) graph(n int) *Graph {
	sc.adj = bitRows(&sc.words, sc.adj, n, n)
	return &Graph{N: n, adj: sc.adj}
}
