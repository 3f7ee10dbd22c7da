package core

import (
	"fmt"
	"sync"

	"repro/internal/interproc"
	"repro/internal/isa"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/occupancy"
	"repro/internal/opt"
	"repro/internal/par"
	"repro/internal/prof"
	"repro/internal/regalloc"
	"repro/internal/tv"
)

// budgetKey identifies one realizeWithBudget input pair. Distinct
// occupancy targets frequently collapse onto the same pair (the occupancy
// formulas round to allocation granules), so the ladder memoizes on the
// budgets rather than the targets.
type budgetKey struct {
	reg    int
	shared int
}

// ladderKey is one memo entry: the pair realized and the pair its level
// started from. A level whose call chains overflow retries at a tightened
// register budget, which can equal another level's starting pair; keyed by
// start too, the retry never shares that entry, so the fill lands in the
// same level's trace slot whichever level's group runs first.
type ladderKey struct {
	start, at budgetKey
}

// Ladder is one call's realization context for one program on one
// realizer: it realizes the program across all target occupancy levels
// through a single set of middle-end analyses. Per-function web splitting,
// liveness, interference graphs, and spill costs are computed once per
// ladder (regalloc.Prep) and re-colored per register budget. Whole
// allocations and the programs they produce live in the program's
// realization, which the realizer's Caches holds and shares with every
// ladder on the same program and platform: fills are memoized per
// (register, shared-slot) budget pair and the pair its level started from
// (ladderKey, DESIGN.md §10), and realized programs are interned by
// content, so whatever is derived from a binary (isa.Program.Derived) is
// built once per distinct binary. A Ladder is safe for concurrent use;
// Sweep and Compile fan levels out over one.
type Ladder struct {
	r   *Realizer
	p   *isa.Program
	key realizeKey
	re  *realization

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

	// optEnts memoizes the pressure-reducing middle end per function: the
	// scheduler's output does not depend on the register budget (the budget
	// only decides whether the scheduled body is used), and both the pass
	// and the re-preparation of its output are deterministic, so each
	// function runs once per ladder.
	optEnts []optEntry
}

// optEntry memoizes one function's middle-end invocation: the prepared
// analyses of the scheduled body, nil when the pass declined, failed, or
// did not beat the baseline's max-live.
type optEntry struct {
	once sync.Once
	prep *regalloc.Prep
}

// NewLadder returns a realization context for p, holding p's realization
// on the realizer's platform from the realizer's Caches. Callers that
// realize a program at several occupancy levels (sweeps, candidate
// ladders) should share one ladder: the analyses are per ladder, while the
// budget-pair fills and realized programs are shared with every ladder on
// the same program, platform and Caches.
func (r *Realizer) NewLadder(p *isa.Program) *Ladder {
	n := len(p.Funcs)
	key := r.cacheKey(p)
	re, _ := r.owner().realize.Do(key, func() (*realization, error) {
		return &realization{memo.New[ladderKey, *Version](), memo.New[isa.Fingerprint, *isa.Program]()}, nil
	})
	return &Ladder{
		r:        r,
		p:        p,
		key:      key,
		re:       re,
		prepOnce: make([]sync.Once, n),
		preps:    make([]*regalloc.Prep, n),
		prepErr:  make([]error, n),
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
	v, err := l.realize(targetWarps, x)
	if err != nil {
		return nil, err
	}
	if err := l.gate(v, targetWarps, x); err != nil {
		return nil, err
	}
	return v, nil
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
				verr = l.r.verifyVersion(l.p, l.key, v, gx)
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

// realize is the ungated realization of one level, in a "realize" span.
func (l *Ladder) realize(targetWarps int, x obs.Ctx) (*Version, error) {
	sp := x.Span("realize",
		obs.String("kernel", l.p.Name),
		obs.Int("target_warps", targetWarps))
	v, err := l.realizeLevel(targetWarps, sp.Ctx())
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
		if l.order, l.metaErr = l.p.CallOrder(); l.metaErr != nil {
			return
		}
		// Worst chain sums over the acyclic call graph: clamped for the
		// allocator's CalleeNeed, raw for Compile's max-live metric.
		l.needs = chainSums(l.p, l.order, l.perLive)
		l.maxLive0 = chainSums(l.p, l.order, perRaw)[0]
	})
	return l.metaErr
}

// chainSums computes, per function, the given per-function demand plus the
// worst demand over any callee chain (the paper's max-live-along-chain) in
// one callees-first pass: order is p.CallOrder() walked backwards.
func chainSums(p *isa.Program, order, per []int) []int {
	sums := make([]int, len(p.Funcs))
	for k := len(order) - 1; k >= 0; k-- {
		fi, best := order[k], 0
		f := p.Funcs[fi]
		for i := range f.Instrs {
			if in := &f.Instrs[i]; in.Op == isa.OpCall && sums[in.Tgt] > best {
				best = sums[in.Tgt]
			}
		}
		sums[fi] = per[fi] + best
	}
	return sums
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
// budget pair, for a level that started at start, through the
// realization's memo; only a new entry runs the allocator. A fill that
// panics leaves no entry, so the next ladder to ask fills it again.
func (l *Ladder) withBudget(start, at budgetKey, x obs.Ctx) (*Version, error) {
	filled := false
	v, err := l.re.fills.Do(ladderKey{start, at}, func() (*Version, error) {
		filled = true
		return l.fillBudget(at.reg, at.shared, x)
	})
	if !filled {
		l.r.owner().ladderReuse.Add(1)
		x.Metrics().Counter("ladder.reuse").Add(1)
	}
	return v, err
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
			l.r.owner().ladderRecolor.Add(1)
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
	v.Prog = l.intern(np)
	v.Debug = &prof.DebugInfo{RegBudget: regBudget, Funcs: dbgFuncs, Opt: dbgOpt}
	v.MaxLivePre = l.maxLive0
	v.MaxLivePost = chainSums(p, order, perPost)[0]
	return v, nil
}

// intern returns the program the realization holds with np's bytes,
// holding np if there is none. np is hashed once: the hash seeds its
// fingerprintOf.
func (l *Ladder) intern(np *isa.Program) *isa.Program {
	fp := np.Fingerprint()
	np.Derived(fingerprintKey{}, func() (any, error) { return fp, nil })
	held, _ := l.re.progs.Do(fp, func() (*isa.Program, error) { return np, nil })
	return held
}

// cloneForTarget stamps a shared proto version with a level's advertised
// occupancy: a copy, sharing the immutable program and debug map.
func cloneForTarget(proto *Version, targetWarps int) *Version {
	v := *proto
	v.TargetWarps = targetWarps
	return &v
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

// realizeLevel maps a target occupancy level onto budget pairs (with
// the paper's tighten-and-retry loop for overflowing call chains) and
// realizes them through the ladder.
func (l *Ladder) realizeLevel(targetWarps int, x obs.Ctx) (*Version, error) {
	b, err := l.budgets(targetWarps)
	if err != nil {
		return nil, err
	}
	at := b
	for attempt := 0; attempt < 4; attempt++ {
		v, err := l.withBudget(b, at, x)
		if err != nil {
			return nil, err
		}
		// b.reg is the most registers per thread that fit targetWarps, so
		// a version above it cannot reach the level: it either exceeds the
		// device's per-thread limit or fits fewer blocks. The register
		// budget alone decides whether the call chains fit.
		if v.RegsPerThread <= b.reg {
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
		over := v.RegsPerThread - at.reg
		at.reg -= over
		if at.reg < minFuncBudget {
			return nil, &ErrInfeasible{targetWarps, "call chains exceed register budget"}
		}
	}
	return nil, &ErrInfeasible{targetWarps, "budget iteration did not converge"}
}
