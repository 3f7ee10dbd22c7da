package regalloc

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/isa"
)

// Result is the outcome of one coloring attempt.
type Result struct {
	// Color holds each variable's physical base register, or -1 if the
	// variable was spilled.
	Color []int
	// Spilled lists spilled variable ids in the order chosen.
	Spilled []int
	// FrameSlots is the frame size implied by the coloring (the highest
	// colored register + width).
	FrameSlots int
}

// Allocate colors the variables of a web-split function with at most C
// physical registers, following the paper's Figure 4: a priority stack is
// built favoring trivially-colorable, narrow variables; coloring walks the
// stack, assigning each variable the lowest aligned run of free registers;
// a variable that cannot be colored is spilled and coloring restarts
// without it. Argument variables are precolored to their ABI positions.
func Allocate(v *ir.Vars, g *Graph, c int) (*Result, error) {
	return allocate(v, g, BuildCostModel(v), nil, c, nil)
}

// allocate is Allocate with the budget-independent inputs supplied by the
// caller: the cost model and the initial weighted degrees (shared across
// budgets by a Prep; nil wdeg means compute them) and optional scratch
// buffers (shared across the rounds of one Chaitin loop).
func allocate(v *ir.Vars, g *Graph, cm *CostModel, wdeg []int, c int, sc *Scratch) (*Result, error) {
	n := v.NumVars()
	res := &Result{Color: make([]int, n)}
	for i := range res.Color {
		res.Color[i] = -1
	}
	if n == 0 {
		return res, nil
	}
	if sc == nil {
		sc = new(Scratch)
	}
	sc.bools = grow(sc.bools, 3*n)
	precolored, inG, removed := rows3(sc.bools, n)
	sc.ints = grow(sc.ints, 3*n)
	deg, pos, stack := rows3(sc.ints, n)
	stack = stack[:0]

	width := func(id int) int { return v.Defs[id].Width }
	maxW := 1
	for id, d := range v.Defs {
		if d.IsArg {
			if int(d.Base) >= c {
				return nil, fmt.Errorf("regalloc: budget %d cannot hold argument %d", c, d.Base)
			}
			res.Color[id] = int(d.Base)
			precolored[id] = true
		}
		maxW = max(maxW, d.Width)
	}

	// Stack-order phase (Figure 4b). deg[i] is the total width of i's
	// neighbors still in G or precolored; it only falls as variables are
	// pushed, so "trivially colorable" (width+deg <= c) is monotone until
	// the variable's own push. triv[w] holds the width-w variables of G
	// that are, which makes the preferred pick — narrowest trivially
	// colorable variable, lowest id — the lowest bit of the first
	// non-empty set instead of a scan over all n.
	triv := bitRows(&sc.triv, sc.sets, maxW+1, n)
	sc.sets = triv
	remaining := 0
	for i := 0; i < n; i++ {
		if wdeg != nil {
			deg[i] = wdeg[i]
		} else {
			deg[i] = g.WeightedDegree(i, v)
		}
		if precolored[i] {
			continue
		}
		inG[i] = true
		remaining++
		if width(i)+deg[i] <= c {
			triv[width(i)].Set(i)
		}
	}
	for ; remaining > 0; remaining-- {
		next := -1
		for w := 0; w <= maxW && next < 0; w++ {
			next = triv[w].First()
		}
		sc.scans++
		if next == -1 {
			// Nothing is trivially colorable: take the narrowest variable
			// of lowest degree (the optimistic push).
			sc.scans += uint64(n)
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
		pos[next] = len(stack)
		stack = append(stack, next)
		inG[next] = false
		wNext := width(next)
		triv[wNext].Clear(next)
		g.Neighbors(next, func(u int) {
			if inG[u] {
				deg[u] -= wNext
				if width(u)+deg[u] <= c {
					triv[width(u)].Set(u)
				}
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
	// restart. A variable's color is a function of the colors popped
	// before it, so the restart need not go back to the top: everything
	// above the victim would be colored exactly as it already is. Only
	// the colors from the failing position up to the victim's are cleared
	// and coloring resumes just below the victim.
	for si := len(stack) - 1; si >= 0; si-- {
		id := stack[si]
		if removed[id] {
			continue
		}
		sc.visits++
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
		sc.prefs = preferredColors(sc.prefs[:0], id, pairs, res.Color)
		for _, pc := range sc.prefs {
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
		if color >= 0 {
			res.Color[id] = color
			continue
		}
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
		removed[victim] = true
		res.Spilled = append(res.Spilled, victim)
		// A victim colored earlier takes the colors from its position down
		// to the failing one with it, and coloring resumes just below it;
		// one not yet colored leaves every color standing and id is retried.
		if top := pos[victim]; top < si {
			si++
		} else {
			for p := si + 1; p <= top; p++ {
				res.Color[stack[p]] = -1
			}
			si = top
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

// Rewrite applies a complete coloring (no spilled variables) to the
// function, producing the allocated form: every operand register becomes
// its variable's physical base plus the unit offset.
func Rewrite(v *ir.Vars, res *Result) (*isa.Function, error) {
	for id, c := range res.Color {
		if c < 0 {
			return nil, fmt.Errorf("regalloc: variable %d is spilled; insert spill code first", id)
		}
	}
	nf := v.F.Clone()
	mapReg := func(r isa.Reg) isa.Reg {
		id := v.VarAt(r)
		off := int(r) - int(v.Defs[id].Base)
		return isa.Reg(res.Color[id] + off)
	}
	for i := range nf.Instrs {
		in := &nf.Instrs[i]
		src := *in // read operand info from the original encoding
		if src.HasDst() {
			in.Dst = mapReg(src.Dst)
		}
		for s := 0; s < src.NumSrcs(); s++ {
			in.Src[s] = mapReg(src.Src[s])
		}
	}
	nf.Allocated = true
	nf.FrameSlots = res.FrameSlots
	nf.NumVRegs = res.FrameSlots
	return nf, nil
}
