// Package regalloc implements the paper's single-procedure multi-class
// register allocator (Figure 4): a Chaitin-Briggs graph-coloring variant
// that understands wide (64/96/128-bit) variables requiring consecutive,
// aligned physical registers, plus spill-code insertion that places
// spilled values into shared-memory or local-memory (L1) slots.
package regalloc

import (
	"repro/internal/ir"
	"repro/internal/isa"
)

// Graph is an interference graph over allocation variables.
type Graph struct {
	N   int
	adj []ir.BitSet
}

// NewGraph returns an empty interference graph over n variables. The
// adjacency rows are carved from a single pre-sized slab: one allocation
// instead of n, and the rows stay cache-adjacent during edge insertion.
func NewGraph(n int) *Graph {
	var slab []uint64
	return &Graph{N: n, adj: bitRows(&slab, nil, n, n)}
}

// AddEdge records that variables a and b are simultaneously live.
func (g *Graph) AddEdge(a, b int) {
	if a == b {
		return
	}
	g.adj[a].Set(b)
	g.adj[b].Set(a)
}

// Interferes reports whether a and b conflict.
func (g *Graph) Interferes(a, b int) bool { return g.adj[a].Has(b) }

// Neighbors iterates over the neighbors of v.
func (g *Graph) Neighbors(v int, fn func(u int)) { g.adj[v].ForEach(fn) }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int) int { return g.adj[v].Count() }

// WeightedDegree returns the total register width of v's neighbors, the
// "edges" quantity in the paper's Figure 4 generalized to wide variables.
func (g *Graph) WeightedDegree(v int, vars *ir.Vars) int {
	w := 0
	g.adj[v].ForEach(func(u int) { w += vars.Defs[u].Width })
	return w
}

// BuildInterference constructs the interference graph of a web-split
// function: a variable being defined interferes with everything live after
// the definition (except the source of a register-to-register move, the
// classic coalescing-friendly exclusion), and the variables live at
// function entry (arguments and implicitly-defined values) pairwise
// interfere.
func BuildInterference(v *ir.Vars, live *ir.Live) *Graph {
	return buildInterferenceInto(v, live, nil)
}

// buildInterferenceInto is BuildInterference with optional scratch-backed
// storage: with sc non-nil the graph reuses the scratch adjacency slab and
// is only valid until the scratch's next round (callers that retain the
// graph — Prepare — pass nil).
func buildInterferenceInto(v *ir.Vars, live *ir.Live, sc *Scratch) *Graph {
	var g *Graph
	if sc != nil {
		g = sc.graph(v.NumVars())
	} else {
		g = NewGraph(v.NumVars())
	}
	for bi := range live.CFG.Blocks {
		if !live.CFG.Reachable(bi) {
			continue
		}
		live.ScanBlock(v, bi, func(i int, liveAfter ir.BitSet) {
			in := &v.F.Instrs[i]
			d, _ := v.DefOf(in)
			if d < 0 {
				return
			}
			movSrc := -1
			if in.Op == isa.OpMov {
				movSrc = v.VarAt(in.Src[0])
			}
			liveAfter.ForEach(func(u int) {
				if u != d && u != movSrc {
					g.AddEdge(d, u)
				}
			})
		})
	}
	// Entry clique: everything live into block 0 coexists at entry.
	var entry []int
	live.In[0].ForEach(func(u int) { entry = append(entry, u) })
	for i := 0; i < len(entry); i++ {
		for j := i + 1; j < len(entry); j++ {
			g.AddEdge(entry[i], entry[j])
		}
	}
	return g
}
