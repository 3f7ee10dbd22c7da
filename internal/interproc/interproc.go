// Package interproc implements the paper's inter-procedural on-chip
// memory allocation (Section 3.2): the compressible stack.
//
// Each function is register-allocated into its own frame by package
// regalloc. At every static call site the caller's live slots are
// compacted below a bound Bk so that the callee receives the maximum run
// of contiguous on-chip slots starting at Bk; after the call the moved
// slots are restored. Two optimizations apply, each independently
// switchable to regenerate the paper's Figure 5 ablation:
//
//   - Space minimization: Bk is the minimal height covering the live slots
//     (without it, Bk is the full frame and callees stack on top).
//   - Movement minimization: the frame's slot layout (a permutation of the
//     single-procedure coloring) is chosen by maximum-weight bipartite
//     matching (Kuhn-Munkres) over the cost matrix Wij of Theorem 1, so
//     that the total number of compress/restore moves is minimal.
//
// Wide variables and ABI-pinned arguments keep their single-procedure
// positions (moving a multi-slot value piecemeal could violate alignment);
// the matching permutes the remaining word-sized variables, which is also
// the granularity the paper's model assumes.
package interproc

import (
	"fmt"
	"sort"

	"repro/internal/assign"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/regalloc"
)

// Options selects which optimizations run.
type Options struct {
	SpaceMin bool // compress the stack at call sites
	MoveMin  bool // optimize slot layout with bipartite matching
}

// DefaultOptions enables both optimizations (the full Orion configuration).
func DefaultOptions() Options { return Options{SpaceMin: true, MoveMin: true} }

// Stats reports what the optimization did to one function.
type Stats struct {
	Calls      int // static call sites
	Movements  int // total Wij moves across call sites (one per moved slot per call)
	FrameSlots int
}

// Optimize computes the compressible-stack layout for one allocated
// function and emits the compress/restore moves. It mutates a.Res.Color
// (re-addressing slots, Figure 6b) and returns the physically rewritten
// function with CallBounds populated. Compression is always maximal.
func Optimize(a *regalloc.Alloc, opt Options) (*isa.Function, *Stats, error) {
	return OptimizeCtx(a, opt, 0, nil, obs.Ctx{})
}

// OptimizeCtx is Optimize with the paper's lazy compression and with
// observability. A positive budget compresses the stack at each call only
// as far as the callee chain needs within that many registers ("we avoid
// extra overhead from pointless stack compression movements", Section
// 3.2), calleeNeed(callee) being the register demand of the callee's
// worst chain; budget zero (or a nil calleeNeed) compresses maximally.
// When x is enabled the function gets an "interproc" span (with a
// "km-matching" child around the Kuhn-Munkres layout search) and the
// movement counts feed the metrics registry.
func OptimizeCtx(a *regalloc.Alloc, opt Options, budget int, calleeNeed func(callee int) int, x obs.Ctx) (*isa.Function, *Stats, error) {
	sp := x.Span("interproc",
		obs.String("func", a.Vars.F.Name),
		obs.Bool("space_min", opt.SpaceMin),
		obs.Bool("move_min", opt.MoveMin))
	f, stats, err := optimize(a, opt, budget, calleeNeed, sp.Ctx())
	if err != nil {
		sp.SetAttr(obs.String("error", err.Error()))
	} else {
		sp.SetAttr(
			obs.Int("calls", stats.Calls),
			obs.Int("movements", stats.Movements),
			obs.Int("frame_slots", stats.FrameSlots))
		m := x.Metrics()
		m.Counter("interproc.calls").Add(uint64(stats.Calls))
		m.Counter("interproc.movements").Add(uint64(stats.Movements))
	}
	sp.End()
	return f, stats, err
}

func optimize(a *regalloc.Alloc, opt Options, budget int, calleeNeed func(callee int) int, x obs.Ctx) (*isa.Function, *Stats, error) {
	v, res, live := a.Vars, a.Res, a.Live
	m := res.FrameSlots
	stats := &Stats{FrameSlots: m}

	callLive := live.CallSiteLiveness(v)
	stats.Calls = len(callLive)
	if len(callLive) == 0 || m == 0 {
		f, err := regalloc.Rewrite(v, res)
		return f, stats, err
	}

	// Partition variables. Pinned variables keep their single-procedure
	// color: wide values (piecemeal movement would break alignment), ABI
	// arguments, and any scalar whose slot overlaps a pinned value's span.
	pinned := make([]bool, v.NumVars())
	pinnedCov := make([]bool, m) // positions covered by pinned variables
	for id, d := range v.Defs {
		if res.Color[id] < 0 {
			return nil, nil, fmt.Errorf("interproc: %s: variable %d unallocated", v.F.Name, id)
		}
		if d.Width > 1 || d.IsArg {
			pinned[id] = true
			for k := 0; k < d.Width; k++ {
				pinnedCov[res.Color[id]+k] = true
			}
		}
	}
	for id := range v.Defs {
		if !pinned[id] && pinnedCov[res.Color[id]] {
			pinned[id] = true
		}
	}

	// The paper's SSi: non-pinned variables grouped by the slot they were
	// colored into. The matching permutes slot sets over free positions.
	slotVars := make([][]int, m)
	for id := range v.Defs {
		if !pinned[id] {
			slotVars[res.Color[id]] = append(slotVars[res.Color[id]], id)
		}
	}
	var slots []int             // occupied movable positions, ascending
	slotIndex := make([]int, m) // position -> index in slots, or -1
	for p := 0; p < m; p++ {
		slotIndex[p] = -1
		if len(slotVars[p]) > 0 {
			slotIndex[p] = len(slots)
			slots = append(slots, p)
		}
	}
	var freePos []int
	for p := 0; p < m; p++ {
		if !pinnedCov[p] {
			freePos = append(freePos, p)
		}
	}

	// Callee of each static call, in instruction order (for lazy
	// compression).
	var callees []int
	for i := range v.F.Instrs {
		if v.F.Instrs[i].Op == isa.OpCall {
			callees = append(callees, int(v.F.Instrs[i].Tgt))
		}
	}
	if len(callees) != len(callLive) {
		return nil, nil, fmt.Errorf("interproc: %s: call count mismatch", v.F.Name)
	}

	// Per-call bounds Bk (paper: desired compressed stack height) and the
	// live slot-set/call incidence liveSK[si][k] (whether slot set SSi
	// holds a value live across call k) — computed once here so the Wij
	// matrix below never re-derives liveness per candidate position.
	bounds := make([]int, len(callLive))
	liveSK := make([][]bool, len(slots))
	for si := range liveSK {
		liveSK[si] = make([]bool, len(callLive))
	}
	for k, vars := range callLive {
		liveWidth := 0
		pinnedEnd := 0
		for _, id := range vars {
			liveWidth += v.Defs[id].Width
			if pinned[id] {
				if end := res.Color[id] + v.Defs[id].Width; end > pinnedEnd {
					pinnedEnd = end
				}
			} else if si := slotIndex[res.Color[id]]; si >= 0 {
				liveSK[si][k] = true
			}
		}
		bk := liveWidth
		if pinnedEnd > bk {
			bk = pinnedEnd
		}
		// Lazy compression: only compress as far as the callee chain needs
		// within the budget; anything more is pointless movement.
		if budget > 0 && calleeNeed != nil {
			if relaxed := budget - calleeNeed(callees[k]); relaxed > bk {
				bk = relaxed
			}
		}
		if bk > m {
			bk = m
		}
		if !opt.SpaceMin {
			bk = m // no compression: callee sits on the full frame
		}
		bounds[k] = bk
	}

	// Movement-minimizing layout (Theorem 1 + Kuhn-Munkres). Wij = number
	// of calls where slot set SSi is live and position j >= Bk; since Wij
	// only depends on j through the comparison against Bk, each row is a
	// prefix sum over the bound histogram of SSi's live calls.
	if opt.MoveMin && opt.SpaceMin && len(slots) > 0 {
		ksp := x.Span("km-matching",
			obs.Int("slots", len(slots)),
			obs.Int("free_positions", len(freePos)))
		x.Metrics().Counter("interproc.km_matchings").Add(1)
		w := make([][]float64, len(slots))
		cnt := make([]int, m+1)
		for si := range slots {
			clear(cnt)
			for k := range callLive {
				if liveSK[si][k] {
					cnt[bounds[k]]++ // contributes to every position >= Bk
				}
			}
			run := 0
			w[si] = make([]float64, len(freePos))
			pi := 0
			for p := 0; p < m && pi < len(freePos); p++ {
				run += cnt[p]
				for pi < len(freePos) && freePos[pi] == p {
					w[si][pi] = -float64(run)
					pi++
				}
			}
		}
		match := assign.MaxWeight(w)
		// The slot→position assignment must be a true permutation into the
		// free positions: a repeated or out-of-range position would alias
		// two slot groups onto one physical register.
		if err := checkMatching(match, len(freePos)); err != nil {
			ksp.End()
			return nil, nil, fmt.Errorf("interproc: %s: %w", v.F.Name, err)
		}
		for si, pos := range slots {
			for _, id := range slotVars[pos] {
				res.Color[id] = freePos[match[si]]
			}
		}
		ksp.End()
	}

	f, err := regalloc.Rewrite(v, res)
	if err != nil {
		return nil, nil, err
	}
	moved, err := insertMoves(f, v, res, pinned, callLive, bounds, opt)
	if err != nil {
		return nil, nil, err
	}
	stats.Movements = moved
	return f, stats, nil
}

// checkMatching verifies that a Kuhn-Munkres result is an injective map
// into [0, cols): every row assigned a distinct, in-range column.
func checkMatching(match []int, cols int) error {
	seen := make(map[int]bool, len(match))
	for si, j := range match {
		if j < 0 || j >= cols {
			return fmt.Errorf("KM matching: slot %d assigned out-of-range position %d (have %d)", si, j, cols)
		}
		if seen[j] {
			return fmt.Errorf("KM matching: position %d assigned twice", j)
		}
		seen[j] = true
	}
	return nil
}

// insertMoves rewrites the allocated function, inserting compress moves
// before each call and restore moves after it, and records the final
// per-call bounds in f.CallBounds. Returns the total move count.
func insertMoves(f *isa.Function, v *ir.Vars, res *regalloc.Result, pinned []bool,
	callLive [][]int, bounds []int, opt Options) (int, error) {

	m := res.FrameSlots
	totalMoves := 0
	old := f.Instrs
	f.Instrs = make([]isa.Instr, 0, len(old)+8)
	newIndex := make([]int, len(old)+1)
	f.CallBounds = make([]int, len(callLive))
	k := 0

	for i := range old {
		newIndex[i] = len(f.Instrs)
		in := old[i]
		if in.Op != isa.OpCall {
			f.Instrs = append(f.Instrs, in)
			continue
		}
		if k >= len(callLive) {
			return 0, fmt.Errorf("interproc: %s: more calls than liveness records", f.Name)
		}
		bk := bounds[k]

		// Positions occupied by live values during the call, at their
		// (final) homes.
		type mv struct{ home, tmp int }
		var moves []mv
		if opt.SpaceMin {
			for {
				occupied := make([]bool, m)
				needSet := map[int]bool{} // home positions >= bk holding live movables
				for _, id := range callLive[k] {
					d := v.Defs[id]
					pos := res.Color[id]
					for q := 0; q < d.Width; q++ {
						occupied[pos+q] = true
					}
					if !pinned[id] && pos >= bk {
						needSet[pos] = true
					}
				}
				needMove := make([]int, 0, len(needSet))
				for pos := range needSet {
					needMove = append(needMove, pos)
				}
				// Positions the CALL itself reads or writes must stay
				// intact until it executes.
				for s := 0; s < in.NumSrcs(); s++ {
					occupied[int(in.Src[s])] = true
				}
				if in.Dst != isa.RegNone {
					occupied[int(in.Dst)] = true
				}
				var tmps []int
				for p := 0; p < bk && len(tmps) < len(needMove); p++ {
					if !occupied[p] {
						tmps = append(tmps, p)
					}
				}
				if len(tmps) == len(needMove) {
					sort.Ints(needMove)
					moves = moves[:0]
					for qi, home := range needMove {
						moves = append(moves, mv{home, tmps[qi]})
					}
					break
				}
				// Not enough temporary room below bk (the call's own
				// operands excluded some positions): raise the bound.
				bk++
				if bk >= m {
					// With bk = m nothing sits above the bound.
					bk = m
					moves = moves[:0]
					break
				}
			}
		}

		for _, mvv := range moves {
			f.Instrs = append(f.Instrs, movInstr(mvv.tmp, mvv.home))
		}
		f.Instrs = append(f.Instrs, in)
		for _, mvv := range moves {
			f.Instrs = append(f.Instrs, movInstr(mvv.home, mvv.tmp))
		}
		totalMoves += len(moves)
		f.CallBounds[k] = bk
		k++
	}
	newIndex[len(old)] = len(f.Instrs)
	for i := range f.Instrs {
		if f.Instrs[i].IsBranch() {
			f.Instrs[i].Tgt = int32(newIndex[f.Instrs[i].Tgt])
		}
	}
	if k != len(callLive) {
		return 0, fmt.Errorf("interproc: %s: call count mismatch (%d vs %d)", f.Name, k, len(callLive))
	}
	return totalMoves, nil
}

func movInstr(dst, src int) isa.Instr {
	return isa.Instr{
		Op:  isa.OpMov,
		Dst: isa.Reg(dst),
		Src: [3]isa.Reg{isa.Reg(src), isa.RegNone, isa.RegNone},
	}
}
