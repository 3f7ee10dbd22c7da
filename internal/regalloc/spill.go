package regalloc

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/prof"
)

// SpillClass says where a spilled variable's slots live.
type SpillClass uint8

// Spill destinations: shared memory first (fast, occupancy-accounted),
// then local memory (L1-backed), per the paper's realizing-occupancy
// order.
const (
	SpillShared SpillClass = iota + 1
	SpillLocal
)

// SpillAssignment maps spilled variables to slots.
type SpillAssignment struct {
	Class map[int]SpillClass
	Slot  map[int]int
	// SharedUsed and LocalUsed are the per-thread slot counts consumed.
	SharedUsed int
	LocalUsed  int
}

// PlanSpills assigns each spilled variable a contiguous run of spill
// slots, preferring shared memory until sharedBudget additional slots are
// used and overflowing into local memory. Slot numbering continues from
// the function's existing spill usage so that repeated Chaitin rounds
// never collide. Wide variables take width consecutive slots.
func PlanSpills(v *ir.Vars, spilled []int, sharedBudget int) *SpillAssignment {
	sa := &SpillAssignment{Class: map[int]SpillClass{}, Slot: map[int]int{}}
	baseShared := v.F.SpillShared
	baseLocal := v.F.SpillLocal
	for _, id := range spilled {
		w := v.Defs[id].Width
		if sa.SharedUsed+w <= sharedBudget {
			sa.Class[id] = SpillShared
			sa.Slot[id] = baseShared + sa.SharedUsed
			sa.SharedUsed += w
		} else {
			sa.Class[id] = SpillLocal
			sa.Slot[id] = baseLocal + sa.LocalUsed
			sa.LocalUsed += w
		}
	}
	return sa
}

// InsertSpills rewrites the web-split function so that every access to a
// spilled variable goes through a fresh temporary loaded from (or stored
// to) its spill slot. The returned function has the spill counters set and
// is ready for another webs/liveness/coloring round (the Chaitin iterate-
// until-colorable loop).
func InsertSpills(v *ir.Vars, sa *SpillAssignment) *isa.Function {
	f := v.F
	nf := f.Clone()
	nf.Instrs = nf.Instrs[:0]
	nextReg := isa.Reg(f.NumVRegs)
	// Old instruction index -> new index, for branch retargeting.
	newIndex := make([]int, len(f.Instrs)+1)

	spillOf := func(r isa.Reg) (int, bool) {
		id := v.VarAt(r)
		_, ok := sa.Class[id]
		return id, ok
	}
	emit := func(in isa.Instr) { nf.Instrs = append(nf.Instrs, in) }
	loadOp := func(cl SpillClass) isa.Op {
		if cl == SpillShared {
			return isa.OpSpillSL
		}
		return isa.OpSpillLL
	}
	storeOp := func(cl SpillClass) isa.Op {
		if cl == SpillShared {
			return isa.OpSpillSS
		}
		return isa.OpSpillLS
	}

	for i := range f.Instrs {
		newIndex[i] = len(nf.Instrs)
		in := f.Instrs[i] // copy
		// Reload spilled sources into temporaries.
		for s := 0; s < in.NumSrcs(); s++ {
			id, ok := spillOf(in.Src[s])
			if !ok {
				continue
			}
			w := in.SrcWidth(s)
			off := int(in.Src[s]) - int(v.Defs[id].Base)
			tmp := nextReg
			nextReg += isa.Reg(w)
			ld := isa.Instr{
				Op:    loadOp(sa.Class[id]),
				Dst:   tmp,
				Src:   [3]isa.Reg{isa.RegNone, isa.RegNone, isa.RegNone},
				Imm:   int32(sa.Slot[id] + off),
				Width: uint8(w),
			}
			emit(ld)
			in.Src[s] = tmp
		}
		// Redirect spilled definitions into a temporary, stored after.
		var post *isa.Instr
		if in.HasDst() {
			if id, ok := spillOf(in.Dst); ok {
				w := in.W()
				off := int(in.Dst) - int(v.Defs[id].Base)
				tmp := nextReg
				nextReg += isa.Reg(w)
				st := isa.Instr{
					Op:    storeOp(sa.Class[id]),
					Src:   [3]isa.Reg{tmp, isa.RegNone, isa.RegNone},
					Imm:   int32(sa.Slot[id] + off),
					Width: uint8(w),
				}
				post = &st
				in.Dst = tmp
			}
		}
		emit(in)
		if post != nil {
			emit(*post)
		}
	}
	newIndex[len(f.Instrs)] = len(nf.Instrs)

	for i := range nf.Instrs {
		in := &nf.Instrs[i]
		if in.IsBranch() {
			in.Tgt = int32(newIndex[in.Tgt])
		}
	}
	nf.NumVRegs = int(nextReg)
	nf.SpillShared = f.SpillShared + sa.SharedUsed
	nf.SpillLocal = f.SpillLocal + sa.LocalUsed
	return nf
}

// Alloc bundles the final state of a successful Chaitin loop: the
// web-split function (including any inserted spill code), its liveness,
// and a complete, spill-free coloring. Inter-procedural optimization
// (package interproc) consumes this before the physical rewrite.
type Alloc struct {
	Vars *ir.Vars
	Live *ir.Live
	Res  *Result
	// Rounds is how many Chaitin rounds the loop took. 1 means the
	// round-0 coloring succeeded without spilling, so the allocation never
	// touched the shared-slot budget.
	Rounds int
	// SpillWebs is the provenance record of every web evicted across all
	// rounds, in eviction order: the raw material for profile lines that
	// resolve spill instructions back to allocator decisions. The (class,
	// slot range) keys stay unique across rounds because PlanSpills
	// continues slot numbering from the function's running totals.
	SpillWebs []prof.SpillWeb
}

// Run performs the full Chaitin loop on a function: split webs, color with
// budget c, insert spill code for uncolorable variables, and repeat until
// everything is colored. sharedBudget is the number of shared-memory spill
// slots this function may consume (beyond what it already uses).
func Run(f *isa.Function, c, sharedBudget int) (*Alloc, error) {
	return RunCtx(f, c, sharedBudget, obs.Ctx{})
}

// RunCtx is Run with observability: when x is enabled it wraps the loop
// in a "regalloc" span with webs/liveness/color/spill child spans per
// round and records spill counts in the metrics registry.
func RunCtx(f *isa.Function, c, sharedBudget int, x obs.Ctx) (*Alloc, error) {
	sp := x.Span("regalloc",
		obs.String("func", f.Name),
		obs.Int("reg_budget", c),
		obs.Int("shared_budget", sharedBudget))
	a, rounds, spilled, err := run(f, nil, c, sharedBudget, sp.Ctx())
	if err != nil {
		sp.SetAttr(obs.String("error", err.Error()))
	} else {
		sp.SetAttr(obs.Int("rounds", rounds), obs.Int("spilled_vars", spilled))
		m := x.Metrics()
		m.Counter("regalloc.runs").Add(1)
		m.Counter("regalloc.rounds").Add(uint64(rounds))
		m.Counter("regalloc.spilled_vars").Add(uint64(spilled))
	}
	sp.End()
	return a, err
}

// run is the Chaitin loop shared by RunCtx and Prep.ReColorCtx. With a
// non-nil prep, round 0 consumes the prepared (budget-independent)
// webs/liveness/graph/costs instead of rebuilding them; without one it
// splits webs. A spill round's input is the previous round's web-split
// function plus fresh spill temporaries, so it takes its webs from
// ir.Renumber rather than a second web split, then rebuilds
// liveness, the graph and the costs for the inserted spill code. Scratch
// buffers are reused across rounds within one call.
func run(f *isa.Function, pr *Prep, c, sharedBudget int, x obs.Ctx) (a *Alloc, rounds, spilled int, err error) {
	cur := f
	var sc Scratch
	var webs []prof.SpillWeb
	defer func() {
		m := x.Metrics()
		m.Counter("regalloc.simplify_scans").Add(sc.scans)
		m.Counter("regalloc.select_visits").Add(sc.visits)
	}()
	const maxRounds = 32
	for round := 0; round < maxRounds; round++ {
		rounds = round + 1
		var v *ir.Vars
		var live *ir.Live
		var g *Graph
		var cm *CostModel
		var wdeg []int
		if round == 0 && pr != nil {
			v, live, g, cm, wdeg = pr.Vars, pr.Live, pr.Graph, pr.Costs, pr.wdeg
		} else {
			wsp := x.Span("webs", obs.Int("round", round))
			if round == 0 {
				v, err = ir.SplitWebs(cur)
			} else {
				v, err = ir.Renumber(cur)
			}
			wsp.End()
			if err != nil {
				return nil, rounds, spilled, err
			}
			lsp := x.Span("liveness", obs.Int("round", round))
			live = ir.ComputeLiveness(v)
			lsp.End()
			g = buildInterferenceInto(v, live, &sc)
			cm = BuildCostModel(v)
		}
		csp := x.Span("color", obs.Int("round", round), obs.Int("webs", len(v.Defs)))
		res, err := allocate(v, g, cm, wdeg, c, &sc)
		if err != nil {
			csp.End()
			return nil, rounds, spilled, err
		}
		csp.SetAttr(obs.Int("spilled", len(res.Spilled)))
		csp.End()
		if len(res.Spilled) == 0 {
			return &Alloc{Vars: v, Live: live, Res: res, Rounds: rounds, SpillWebs: webs},
				rounds, spilled, nil
		}
		spilled += len(res.Spilled)
		budget := sharedBudget - (cur.SpillShared - f.SpillShared)
		if budget < 0 {
			budget = 0
		}
		ssp := x.Span("spill", obs.Int("round", round), obs.Int("vars", len(res.Spilled)))
		sa := PlanSpills(v, res.Spilled, budget)
		for _, id := range res.Spilled {
			webs = append(webs, prof.SpillWeb{
				Round: rounds,
				Web:   id,
				Class: prof.SpillClass(sa.Class[id]),
				Slot:  sa.Slot[id],
				Width: v.Defs[id].Width,
			})
		}
		cur = InsertSpills(v, sa)
		ssp.End()
	}
	return nil, rounds, spilled, fmt.Errorf("regalloc: %s: spill loop did not converge at budget %d registers", f.Name, c)
}

// AllocateWithSpills runs the Chaitin loop and applies the coloring,
// returning the allocated function.
func AllocateWithSpills(f *isa.Function, c, sharedBudget int) (*isa.Function, error) {
	a, err := Run(f, c, sharedBudget)
	if err != nil {
		return nil, err
	}
	return Rewrite(a.Vars, a.Res)
}
