package regalloc

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/isa"
)

// This file is the allocator's differential reference: allocate and
// preferredColors exactly as they stood before the bucketed simplify and
// the resume-at-the-victim select, kept so TestAllocateMatchesReference
// can require the two to agree on every color, every eviction and every
// error. It is the paper's Figure 4 read literally: each push rescans all
// n variables, each eviction recolors the stack from the top. The only
// edits are the name, fresh work arrays in place of the old Scratch rows,
// and the lines marked "counting only".

// refWork counts what the reference did, in the units of the
// regalloc.simplify_scans and regalloc.select_visits counters, plus which
// kind of eviction each failure was.
type refWork struct {
	scans, visits uint64
	// evictions by where the victim stood: it was the failing variable,
	// it had been colored earlier in the pass, or it was still uncolored.
	self, colored, uncolored uint64
}

func (w *refWork) evicted(self, colored bool) {
	switch {
	case self:
		w.self++
	case colored:
		w.colored++
	default:
		w.uncolored++
	}
}

func allocateReference(v *ir.Vars, g *Graph, cm *CostModel, c int, work *refWork) (*Result, error) {
	n := v.NumVars()
	res := &Result{Color: make([]int, n)}
	for i := range res.Color {
		res.Color[i] = -1
	}
	if n == 0 {
		return res, nil
	}

	precolored := make([]bool, n)
	inG := make([]bool, n)
	removed := make([]bool, n)
	deg := make([]int, n)
	for id, d := range v.Defs {
		if d.IsArg {
			if int(d.Base) >= c {
				return nil, fmt.Errorf("regalloc: budget %d cannot hold argument %d", c, d.Base)
			}
			res.Color[id] = int(d.Base)
			precolored[id] = true
		}
	}

	// Stack-order phase (Figure 4b). Weighted degrees are maintained
	// incrementally so each selection costs O(n) instead of O(n·deg).
	// deg[i] is the total width of i's neighbors still in G or precolored.
	remaining := 0
	width := func(id int) int { return v.Defs[id].Width }
	for i := 0; i < n; i++ {
		if !precolored[i] {
			inG[i] = true
			remaining++
		}
	}
	for i := 0; i < n; i++ {
		if !inG[i] {
			continue
		}
		d := 0
		g.Neighbors(i, func(u int) {
			if inG[u] || precolored[u] {
				d += width(u)
			}
		})
		deg[i] = d
	}
	var stack []int
	for remaining > 0 {
		next := -1
		work.scans += uint64(n) // counting only
		for id := 0; id < n; id++ {
			if !inG[id] {
				continue
			}
			if width(id)+deg[id] <= c {
				if next == -1 || width(next) > width(id) {
					next = id
				}
			}
		}
		if next == -1 {
			work.scans += uint64(n) // counting only
			for id := 0; id < n; id++ {
				if !inG[id] {
					continue
				}
				if next == -1 || width(next) > width(id) ||
					(width(next) == width(id) && deg[next] > deg[id]) {
					next = id
				}
			}
		}
		stack = append(stack, next)
		inG[next] = false
		remaining--
		wNext := width(next)
		g.Neighbors(next, func(u int) {
			if inG[u] {
				deg[u] -= wNext
			}
		})
	}

	// Spill costs (Briggs [3], which the paper's allocator builds on):
	// occurrence counts weighted against degree, so rarely-touched long
	// live ranges are evicted before hot values. The counts and the
	// move-related pairs for coalescing-biased color choice ([9]) come
	// precomputed in the cost model — they are budget-independent.
	spillScore := func(id int) float64 {
		deg := g.Degree(id)
		if deg == 0 {
			deg = 1
		}
		return float64(cm.Occurrences[id]) / float64(deg)
	}
	pairs := cm.Pairs

	// Coloring phase (Figure 4c): pop from the top; on failure remove the
	// cheapest conflicting live range from the stack, spill it, and
	// restart.
	for {
		ok := true
		// Reset non-precolored colors for this attempt.
		for id := 0; id < n; id++ {
			if !precolored[id] {
				res.Color[id] = -1
			}
		}
		for si := len(stack) - 1; si >= 0; si-- {
			id := stack[si]
			if removed[id] {
				continue
			}
			work.visits++ // counting only
			var used [isa.MaxRegs]bool
			g.Neighbors(id, func(u int) {
				if res.Color[u] < 0 {
					return
				}
				for k := 0; k < width(u); k++ {
					used[res.Color[u]+k] = true
				}
			})
			w := width(id)
			align := isa.AlignFor(w)
			color := -1
			fits := func(base int) bool {
				if base%align != 0 || base+w > c {
					return false
				}
				for k := 0; k < w; k++ {
					if used[base+k] {
						return false
					}
				}
				return true
			}
			// Coalescing bias: prefer a move partner's color so the move
			// becomes a no-op and is elided.
			for _, pc := range preferredColorsReference(id, pairs, res.Color) {
				if fits(pc) {
					color = pc
					break
				}
			}
			if color < 0 {
				for base := 0; base+w <= c; base += align {
					if fits(base) {
						color = base
						break
					}
				}
			}
			if color < 0 {
				// Choose the eviction victim by spill cost among the failing
				// variable and its conflicting neighbors. Spill temporaries
				// are never re-spilled (that adds spill code forever).
				victim := -1
				bestScore := 0.0
				consider := func(u int) {
					if removed[u] || precolored[u] || v.Defs[u].NoSpill {
						return
					}
					if s := spillScore(u); victim < 0 || s < bestScore {
						bestScore = s
						victim = u
					}
				}
				consider(id)
				g.Neighbors(id, func(u int) { consider(u) })
				if victim < 0 {
					return nil, fmt.Errorf("regalloc: %s: no spillable variable with %d registers", v.F.Name, c)
				}
				work.evicted(victim == id, res.Color[victim] >= 0) // counting only
				removed[victim] = true
				res.Spilled = append(res.Spilled, victim)
				ok = false
				break
			}
			res.Color[id] = color
		}
		if ok {
			break
		}
	}

	for id := 0; id < n; id++ {
		if res.Color[id] >= 0 {
			if end := res.Color[id] + width(id); end > res.FrameSlots {
				res.FrameSlots = end
			}
		}
	}
	return res, nil
}

func preferredColorsReference(id int, pairs map[int][]int, color []int) []int {
	var out []int
	for _, p := range pairs[id] {
		c := color[p]
		if c < 0 {
			continue
		}
		dup := false
		for _, x := range out {
			if x == c {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, c)
		}
	}
	return out
}
