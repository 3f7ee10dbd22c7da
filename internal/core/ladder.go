package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/interproc"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/occupancy"
	"repro/internal/opt"
	"repro/internal/par"
	"repro/internal/prof"
	"repro/internal/regalloc"
	"repro/internal/tv"
)

// Ladder-wide counters (process-global, like the memo-cache counters):
// how often a budget realization was served from a shared allocation
// (reuse) and how many per-function colorings ran against prepared
// analyses (recolor).
var (
	ladderReuse   atomic.Uint64
	ladderRecolor atomic.Uint64
)

// LadderStats reports the process-wide ladder counters.
func LadderStats() LadderCounters {
	return LadderCounters{
		Reuse:   ladderReuse.Load(),
		Recolor: ladderRecolor.Load(),
	}
}

func countReuse(x obs.Ctx) {
	ladderReuse.Add(1)
	x.Metrics().Counter("ladder.reuse").Add(1)
}

// budgetKey identifies one realizeWithBudget input pair. Distinct
// occupancy targets frequently collapse onto the same pair (the occupancy
// formulas round to allocation granules), so the ladder memoizes on the
// budgets rather than the targets.
type budgetKey struct {
	reg    int
	shared int
}

// ladderEntry is one realized budget pair: the shared proto version
// (TargetWarps zero — per-level Versions are cloned from it), or the
// error the realization produced.
type ladderEntry struct {
	once sync.Once
	v    *Version
	err  error
}

// Ladder is the shared realization context for one program on one
// realizer: it realizes the program across all target occupancy levels
// through a single set of middle-end analyses. Per-function web splitting,
// liveness, interference graphs, and spill costs are computed once
// (regalloc.Prep) and re-colored per register budget, and whole
// allocations are memoized per (register, shared-slot) budget pair
// (DESIGN.md §10).
//
// A Ladder is safe for concurrent use; Sweep and Compile fan levels out
// over one ladder. Results flow through the process-wide realization
// cache exactly as before, so warm-path behavior is unchanged.
type Ladder struct {
	r *Realizer
	p *isa.Program

	prepOnce []sync.Once
	preps    []*regalloc.Prep
	prepErr  []error

	metaOnce sync.Once
	metaErr  error
	needs    []int // per-function register demand incl. worst callee chain
	perLive  []int // per-function max-live (clamped >= 1)
	perRaw   []int // per-function max-live, unclamped (the opt pipeline's baseline)
	order    []int // caller-first allocation order
	maxLive0 int   // entry function's unclamped chain max-live (Compile's metric)

	mu      sync.Mutex
	entries map[budgetKey]*ladderEntry

	// optEnts memoizes the pressure-reducing middle end per function: the
	// scheduler's output does not depend on the register budget (the budget
	// only decides whether the scheduled body is used), and both the pass
	// and the re-preparation of its output are deterministic, so each
	// function runs once per ladder.
	optEnts []optEntry

	// oracle is the differential reference for p: Compile verifies levels
	// in parallel, and every one of them diffs against the same execution
	// of the source.
	oracle oracleRef
}

// optEntry memoizes one function's middle-end invocation: the prepared
// analyses of the scheduled body, nil when the pass declined, failed, or
// did not beat the baseline's max-live.
type optEntry struct {
	once sync.Once
	prep *regalloc.Prep
}

// NewLadder returns a ladder realization context for p. Callers that
// realize a program at several occupancy levels (sweeps, candidate
// ladders) should share one ladder; single-level callers can keep using
// Realize, which builds a throwaway ladder internally.
func (r *Realizer) NewLadder(p *isa.Program) *Ladder {
	n := len(p.Funcs)
	return &Ladder{
		r:        r,
		p:        p,
		prepOnce: make([]sync.Once, n),
		preps:    make([]*regalloc.Prep, n),
		prepErr:  make([]error, n),
		entries:  map[budgetKey]*ladderEntry{},
		optEnts:  make([]optEntry, n),
	}
}

// Realize compiles the ladder's program for at least targetWarps resident
// warps per SM, sharing analyses and allocations with every other level
// realized through this ladder. See Realizer.Realize for the realization
// contract; results are identical.
func (l *Ladder) Realize(targetWarps int) (*Version, error) {
	return l.RealizeCtx(targetWarps, l.r.Obs.Ctx())
}

// RealizeCtx is Realize with an explicit observability context: the
// realization, then the version's gates.
func (l *Ladder) RealizeCtx(targetWarps int, x obs.Ctx) (*Version, error) {
	v, err := l.realizeVersion(targetWarps, x)
	if err != nil {
		return nil, err
	}
	if err := l.gate(v, targetWarps, x); err != nil {
		return nil, err
	}
	return v, nil
}

// realizeVersion is the ungated realization: the process-wide realization
// memo in front of the ladder, exactly as in Realizer.RealizeCtx.
func (l *Ladder) realizeVersion(targetWarps int, x obs.Ctx) (*Version, error) {
	filled := false
	v, err := realizeCache.Do(l.r.cacheKey(l.p, targetWarps), func() (*Version, error) {
		filled = true
		return l.realize(targetWarps, x)
	})
	if !filled && x.Enabled() {
		sp := x.Span("realize.cached",
			obs.String("kernel", l.p.Name),
			obs.Int("target_warps", targetWarps))
		if err != nil {
			sp.SetAttr(obs.String("error", err.Error()))
		}
		sp.End()
	}
	return v, err
}

// gate runs a realized version's two checks side by side: the allocation
// verifier with the differential oracle (when the realizer verifies), and
// the static analyzer. Each depends on nothing but the version, and the
// verifier's error wins over the analyzer's, as when they ran in turn.
func (l *Ladder) gate(v *Version, targetWarps int, x obs.Ctx) error {
	var verr, lerr error
	overlap(x, "gate",
		func(gx obs.Ctx) {
			if l.r.Verify {
				verr = l.r.verifyVersion(l.p, &l.oracle, v, gx)
			}
		},
		func(gx obs.Ctx) { lerr = l.r.lintProgram(v.Prog, targetWarps, gx) })
	if verr != nil {
		return verr
	}
	return lerr
}

// overlap runs tasks through one par.ForEach, each recording its spans
// through its own fork context, and returns once all have finished. The
// fork joins in task order, so the trace does not depend on scheduling; a
// panicking task re-panics on the caller as *par.ItemPanic.
func overlap(x obs.Ctx, label string, tasks ...func(obs.Ctx)) {
	fork := x.Fork(label, len(tasks))
	par.ForEach(0, len(tasks), func(i int) { tasks[i](fork.At(i)) })
	fork.Join()
}

// realize wraps the uncached realization in a "realize" span.
func (l *Ladder) realize(targetWarps int, x obs.Ctx) (*Version, error) {
	sp := x.Span("realize",
		obs.String("kernel", l.p.Name),
		obs.Int("target_warps", targetWarps))
	v, err := l.realizeUncached(targetWarps, sp.Ctx())
	if err != nil {
		sp.SetAttr(obs.String("error", err.Error()))
	} else {
		sp.SetAttr(
			obs.Int("regs_per_thread", v.RegsPerThread),
			obs.Int("shared_per_block", v.SharedPerBlock),
			obs.Int("local_slots", v.LocalSlots),
			obs.Int("moves", v.Moves),
			obs.Int("natural_warps", v.Natural.ActiveWarps))
		x.Metrics().Counter("compile.realizations").Add(1)
	}
	sp.End()
	return v, err
}

// prepFor returns function fi's budget-independent analyses, building them
// on first use (once per ladder, shared by every level and budget).
func (l *Ladder) prepFor(fi int, x obs.Ctx) (*regalloc.Prep, error) {
	l.prepOnce[fi].Do(func() {
		l.preps[fi], l.prepErr[fi] = regalloc.PrepareCtx(l.p.Funcs[fi], x)
	})
	return l.preps[fi], l.prepErr[fi]
}

// optPrepFor runs the pressure-reducing middle end on function fi and
// returns the prepared analyses of the scheduled body, or nil — the
// baseline prep stands — when the pass declines, errors, or fails to beat
// the baseline's max-live. Memoized per function: the pass runs under a
// budget of one register, which admits it for every function fillBudget
// asks about (those over their own budget), so the entry does not depend
// on which budget asks first.
func (l *Ladder) optPrepFor(fi int, base *regalloc.Prep, x obs.Ctx) *regalloc.Prep {
	e := &l.optEnts[fi]
	e.once.Do(func() {
		nf, st, err := opt.RunTV(l.p.Funcs[fi], 1, tv.ModeStrict, x)
		if err != nil || !st.Changed {
			return
		}
		pr, err := regalloc.PrepareCtx(nf, x)
		if err != nil || pr.MaxLive >= base.MaxLive {
			return // the allocator measures no win; keep the baseline
		}
		e.prep = pr
	})
	return e.prep
}

// ensureMeta computes the program-level facts every budget realization
// shares: per-function max-live, chain register demands (lazy
// compression's CalleeNeed) and the caller-first allocation order.
func (l *Ladder) ensureMeta(x obs.Ctx) error {
	l.metaOnce.Do(func() {
		n := len(l.p.Funcs)
		perRaw := make([]int, n)
		l.perLive = make([]int, n)
		for fi := range l.p.Funcs {
			pr, err := l.prepFor(fi, x)
			if err != nil {
				l.metaErr = err
				return
			}
			perRaw[fi] = pr.MaxLive
			l.perLive[fi] = pr.MaxLive
			if l.perLive[fi] < 1 {
				l.perLive[fi] = 1
			}
		}
		l.perRaw = perRaw
		// Worst chain sums over the acyclic call graph: clamped for the
		// allocator's CalleeNeed, raw for Compile's max-live metric.
		l.needs = chainSums(l.p, l.perLive)
		l.maxLive0 = chainSums(l.p, perRaw)[0]
		l.order, l.metaErr = topoOrder(l.p)
	})
	return l.metaErr
}

// chainSums computes, per function, the given per-function demand plus the
// worst demand over any callee chain (the paper's max-live-along-chain).
func chainSums(p *isa.Program, per []int) []int {
	memo := make([]int, len(p.Funcs))
	for i := range memo {
		memo[i] = -1
	}
	var chain func(fi int) int
	chain = func(fi int) int {
		if memo[fi] >= 0 {
			return memo[fi]
		}
		best := 0
		f := p.Funcs[fi]
		for i := range f.Instrs {
			if f.Instrs[i].Op == isa.OpCall {
				if c := chain(int(f.Instrs[i].Tgt)); c > best {
					best = c
				}
			}
		}
		memo[fi] = per[fi] + best
		return memo[fi]
	}
	for fi := range p.Funcs {
		chain(fi)
	}
	return memo
}

// maxLive returns the program's compile-time max-live metric through the
// ladder's shared analyses (equal to MaxLive(p), without re-running
// webs/liveness per function).
func (l *Ladder) maxLive(x obs.Ctx) (int, error) {
	if err := l.ensureMeta(x); err != nil {
		return 0, err
	}
	return l.maxLive0, nil
}

// withBudget realizes the program at an exact (register, shared-slot)
// budget pair through the per-pair memo; only a new pair runs the
// allocator.
func (l *Ladder) withBudget(regBudget, sharedSlotBudget int, x obs.Ctx) (*Version, error) {
	key := budgetKey{regBudget, sharedSlotBudget}
	l.mu.Lock()
	e, ok := l.entries[key]
	if !ok {
		e = &ladderEntry{}
		l.entries[key] = e
	}
	l.mu.Unlock()

	hit := true
	e.once.Do(func() {
		hit = false
		e.v, e.err = l.fillBudget(regBudget, sharedSlotBudget, x)
	})
	if hit {
		countReuse(x)
	}
	return e.v, e.err
}

// fillBudget allocates every function at the budget pair, walking the call
// graph caller-first so that callee budgets subtract the caller's
// compressed height (Bk) and spill-slot usage along the worst chain (the
// body of the pre-ladder realizeWithBudget).
func (l *Ladder) fillBudget(regBudget, sharedSlotBudget int, x obs.Ctx) (*Version, error) {
	r, p := l.r, l.p
	if err := l.ensureMeta(x); err != nil {
		return nil, err
	}
	needs, perMaxLive, order := l.needs, l.perLive, l.order

	np := p.Clone()
	n := len(np.Funcs)

	// cumReg[f]/cumShared[f]: worst-case frame base / shared-slot base of f
	// over all call chains, filled as callers are allocated.
	cumReg := make([]int, n)
	cumShared := make([]int, n)
	for i := range cumReg {
		cumReg[i], cumShared[i] = -1, -1
	}
	cumReg[0], cumShared[0] = 0, 0

	totalMoves := 0
	var dbgFuncs map[string][]prof.SpillWeb
	var dbgOpt map[string][2]int
	perPost := append([]int(nil), l.perRaw...)
	for _, fi := range order {
		if cumReg[fi] < 0 {
			// Unreachable from entry; allocate standalone with full budget.
			cumReg[fi], cumShared[fi] = 0, 0
		}
		c := regBudget - cumReg[fi]
		if c < minFuncBudget {
			c = minFuncBudget
		}
		if c > regBudget {
			c = regBudget
		}
		shBudget := sharedSlotBudget - cumShared[fi]
		if shBudget < 0 {
			shBudget = 0
		}
		ipo := r.Interproc
		// Lazy compression and the compress-vs-spill choice below apply
		// only to the fully optimized configuration; the Figure 5 ablations
		// (SpaceMin or MoveMin off) reproduce the paper's naive variants
		// (maximal compression, identity layout).
		smart := ipo.SpaceMin && ipo.MoveMin
		var lazyBudget int
		var calleeNeed func(callee int) int
		if smart {
			// Compress only as far as each call's callee chain needs within
			// this function's budget (paper Section 3.2).
			lazyBudget = c
			calleeNeed = func(callee int) int { return needs[callee] }
		}
		pr, err := l.prepFor(fi, x)
		if err != nil {
			return nil, err
		}
		if r.Opt && pr.MaxLive > c {
			// Pressure-reducing middle end: when the baseline body cannot
			// fit the effective budget, allocate the scheduled body instead.
			if opr := l.optPrepFor(fi, pr, x); opr != nil {
				if dbgOpt == nil {
					dbgOpt = map[string][2]int{}
				}
				dbgOpt[np.Funcs[fi].Name] = [2]int{pr.MaxLive, opr.MaxLive}
				pr = opr
				perPost[fi] = pr.MaxLive
			}
		}
		allocOnce := func(budget int) (*isa.Function, *interproc.Stats, *regalloc.Alloc, error) {
			a, err := pr.ReColorCtx(budget, shBudget, x)
			if err != nil {
				return nil, nil, nil, err
			}
			ladderRecolor.Add(1)
			x.Metrics().Counter("ladder.recolor").Add(1)
			nf, st, err := interproc.OptimizeCtx(a, ipo, lazyBudget, calleeNeed, x)
			return nf, st, a, err
		}
		// variantCost scores an allocation: its own spill/move overhead
		// (loop-weighted) plus the registers it squeezes out of callee
		// chains (which turn into callee spills at every call).
		variantCost := func(nf *isa.Function) int {
			cost := addedCost(nf)
			k := 0
			for i := range nf.Instrs {
				if nf.Instrs[i].Op != isa.OpCall {
					continue
				}
				bk := nf.FrameSlots
				if nf.CallBounds != nil {
					bk = nf.CallBounds[k]
				}
				if squeeze := needs[int(nf.Instrs[i].Tgt)] - (c - bk); squeeze > 0 {
					cost += 2 * loopWeight * squeeze
				}
				k++
			}
			return cost
		}
		nf, st, a, err := allocOnce(c)
		if err != nil {
			return nil, err
		}
		// Compress-vs-spill choice: compression movements are paid at every
		// dynamic call, whereas allocating this function below the budget
		// (reserving room for the callee chain) converts them into spills
		// of the cheapest values. Pick whichever costs less.
		if smart && st.Movements > 0 {
			best := variantCost(nf)
			worstNeed := 0
			for i := range np.Funcs[fi].Instrs {
				if np.Funcs[fi].Instrs[i].Op == isa.OpCall {
					if nd := needs[np.Funcs[fi].Instrs[i].Tgt]; nd > worstNeed {
						worstNeed = nd
					}
				}
			}
			for _, c2 := range []int{c - worstNeed, perMaxLive[fi]} {
				if c2 < minFuncBudget {
					c2 = minFuncBudget
				}
				if c2 >= c {
					continue
				}
				nf2, st2, a2, err2 := allocOnce(c2)
				if err2 != nil {
					continue
				}
				if cost2 := variantCost(nf2); cost2 < best {
					best = cost2
					nf, st, a = nf2, st2, a2
				}
			}
		}
		nf.Name = np.Funcs[fi].Name
		if len(a.SpillWebs) > 0 {
			if dbgFuncs == nil {
				dbgFuncs = map[string][]prof.SpillWeb{}
			}
			dbgFuncs[nf.Name] = a.SpillWebs
		}
		if n := regalloc.ElideCoalescedMoves(nf); n > 0 { // coalesced copies are no-ops
			x.Metrics().Counter("regalloc.coalesced_moves").Add(uint64(n))
		}
		np.Funcs[fi] = nf
		totalMoves += st.Movements

		// Propagate bases to callees.
		k := 0
		for i := range nf.Instrs {
			if nf.Instrs[i].Op != isa.OpCall {
				continue
			}
			callee := int(nf.Instrs[i].Tgt)
			bk := nf.FrameSlots
			if nf.CallBounds != nil {
				bk = nf.CallBounds[k]
			}
			if v := cumReg[fi] + bk; v > cumReg[callee] {
				cumReg[callee] = v
			}
			if v := cumShared[fi] + nf.SpillShared; v > cumShared[callee] {
				cumShared[callee] = v
			}
			k++
		}
	}

	v, err := assembleVersion(r, p, np, totalMoves)
	if err != nil {
		return nil, err
	}
	v.Debug = &prof.DebugInfo{RegBudget: regBudget, Funcs: dbgFuncs, Opt: dbgOpt}
	v.MaxLivePre = l.maxLive0
	v.MaxLivePost = chainSums(p, perPost)[0]
	return v, nil
}

// cloneForTarget stamps a shared proto version with a level's advertised
// occupancy. The program and all realized resources are shared (they are
// immutable); only the target differs, so reused levels cost one small
// allocation instead of a compile.
func cloneForTarget(proto *Version, targetWarps int) *Version {
	return &Version{
		Prog:           proto.Prog,
		TargetWarps:    targetWarps,
		RegsPerThread:  proto.RegsPerThread,
		SharedPerBlock: proto.SharedPerBlock,
		LocalSlots:     proto.LocalSlots,
		Moves:          proto.Moves,
		Natural:        proto.Natural,
		MaxLivePre:     proto.MaxLivePre,
		MaxLivePost:    proto.MaxLivePost,
		Debug:          proto.Debug,
	}
}

// budgets returns the budget pair a target's realization starts from: the
// register budget and the shared spill slots the occupancy formulas leave,
// or why the target is infeasible before any allocation.
func (l *Ladder) budgets(targetWarps int) (budgetKey, error) {
	r, p, d := l.r, l.p, l.r.Dev
	regBudget := occupancy.MaxRegsForWarps(d, p.BlockDim, targetWarps)
	if regBudget < minFuncBudget {
		return budgetKey{}, &ErrInfeasible{targetWarps, "register budget too small"}
	}
	sharedCap := occupancy.MaxSharedForWarps(d, r.Cache, p.BlockDim, targetWarps)
	if p.SharedBytes > sharedCap {
		return budgetKey{}, &ErrInfeasible{targetWarps, "user shared memory exceeds capacity"}
	}
	return budgetKey{regBudget, (sharedCap - p.SharedBytes) / (4 * p.BlockDim)}, nil
}

// groupByBudget partitions indices into targets by the budget pair their
// realizations start from, each group and the groups in index order. An
// infeasible target is a group of its own.
func (l *Ladder) groupByBudget(targets []int) [][]int {
	var groups [][]int
	byKey := map[budgetKey]int{}
	for i, t := range targets {
		b, err := l.budgets(t)
		if g, ok := byKey[b]; ok && err == nil {
			groups[g] = append(groups[g], i)
			continue
		}
		if err == nil {
			byKey[b] = len(groups)
		}
		groups = append(groups, []int{i})
	}
	return groups
}

// realizeUncached maps a target occupancy level onto budget pairs (with
// the paper's tighten-and-retry loop for overflowing call chains) and
// realizes them through the ladder.
func (l *Ladder) realizeUncached(targetWarps int, x obs.Ctx) (*Version, error) {
	p, d := l.p, l.r.Dev
	b, err := l.budgets(targetWarps)
	if err != nil {
		return nil, err
	}
	regBudget, sharedSlotBudget := b.reg, b.shared
	for attempt := 0; attempt < 4; attempt++ {
		v, err := l.withBudget(regBudget, sharedSlotBudget, x)
		if err != nil {
			return nil, err
		}
		if v.RegsPerThread <= occupancy.MaxRegsForWarps(d, p.BlockDim, targetWarps) ||
			v.Natural.ActiveWarps >= targetWarps {
			if v.Natural.ActiveBlocks == 0 {
				return nil, &ErrInfeasible{targetWarps, "allocation admits no residency"}
			}
			if v.Natural.ActiveWarps < targetWarps {
				return nil, &ErrInfeasible{targetWarps,
					fmt.Sprintf("achieved only %d warps", v.Natural.ActiveWarps)}
			}
			return cloneForTarget(v, targetWarps), nil
		}
		// Call chains overflowed the per-thread budget; tighten and retry.
		over := v.RegsPerThread - regBudget
		regBudget -= over
		if regBudget < minFuncBudget {
			return nil, &ErrInfeasible{targetWarps, "call chains exceed register budget"}
		}
	}
	return nil, &ErrInfeasible{targetWarps, "budget iteration did not converge"}
}
