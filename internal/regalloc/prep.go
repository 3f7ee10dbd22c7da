package regalloc

import (
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/obs"
)

// CostModel holds the budget-independent coloring inputs derived from a
// web-split function: per-variable occurrence counts (the numerator of the
// Briggs spill metric) and the move-related pairs that bias color choice
// toward coalescing. Both depend only on the code, never on the register
// or shared-slot budget, so one model serves every coloring attempt.
type CostModel struct {
	// Occurrences counts definitions plus uses of each variable.
	Occurrences []int
	// Pairs maps each variable to its register-move partners.
	Pairs map[int][]int
}

// BuildCostModel computes the spill-cost inputs for a web-split function.
func BuildCostModel(v *ir.Vars) *CostModel {
	occ := make([]int, v.NumVars())
	for i := range v.F.Instrs {
		in := &v.F.Instrs[i]
		if d, _ := v.DefOf(in); d >= 0 {
			occ[d]++
		}
		for s := 0; s < in.NumSrcs(); s++ {
			occ[v.VarAt(in.Src[s])]++
		}
	}
	return &CostModel{Occurrences: occ, Pairs: movePairs(v)}
}

// Prep bundles the round-0 state of the Chaitin loop for one function:
// its web-split form, liveness, interference graph, and spill-cost model.
// Every quantity is budget-independent, so a single Prep can re-color the
// function at each of the occupancy ladder's register budgets without
// re-running web splitting, liveness, or graph construction (only the
// simplify/select phases — and the spill loop when coloring fails —
// depend on the budgets).
//
// A Prep is immutable after Prepare returns and safe for concurrent
// ReColor calls. Spill rounds build their own state: webs renumbered from
// the previous round's (ir.Renumber), then liveness, graph and costs.
type Prep struct {
	Vars  *ir.Vars
	Live  *ir.Live
	Graph *Graph
	Costs *CostModel

	// MaxLive is the function's max-live metric (register units), shared
	// with the compile-time direction choice so callers need not re-run
	// liveness.
	MaxLive int

	wdeg []int // each variable's weighted degree in Graph: simplify's starting point
	fn   *isa.Function
}

// Prepare runs the budget-independent half of the allocator on a function:
// web splitting, liveness, interference-graph construction, and the spill
// cost model. The result feeds any number of ReColor calls.
func Prepare(f *isa.Function) (*Prep, error) {
	return PrepareCtx(f, obs.Ctx{})
}

// PrepareCtx is Prepare with observability: the analyses are wrapped in a
// "regalloc.prepare" span.
func PrepareCtx(f *isa.Function, x obs.Ctx) (*Prep, error) {
	sp := x.Span("regalloc.prepare", obs.String("func", f.Name))
	v, err := ir.SplitWebs(f)
	if err != nil {
		sp.SetAttr(obs.String("error", err.Error()))
		sp.End()
		return nil, err
	}
	live := ir.ComputeLiveness(v)
	g := BuildInterference(v, live)
	pr := &Prep{
		Vars:    v,
		Live:    live,
		Graph:   g,
		Costs:   BuildCostModel(v),
		MaxLive: live.MaxLive(v),
		wdeg:    make([]int, v.NumVars()),
		fn:      f,
	}
	for id := range pr.wdeg {
		pr.wdeg[id] = g.WeightedDegree(id, v)
	}
	sp.SetAttr(
		obs.Int("webs", v.NumVars()),
		obs.Int("max_live", pr.MaxLive))
	sp.End()
	return pr, nil
}

// ReColor runs only the budget-dependent half of the Chaitin loop against
// the prepared analyses: simplify/select at budget c, plus the full
// spill-and-retry loop should the round-0 coloring spill (later rounds
// change the code, so they renumber the webs they already have and
// rebuild liveness/graph/costs). The result is identical to Run(f, c,
// sharedBudget) on the prepared function.
func (pr *Prep) ReColor(c, sharedBudget int) (*Alloc, error) {
	return pr.ReColorCtx(c, sharedBudget, obs.Ctx{})
}

// ReColorCtx is ReColor with observability; the span mirrors RunCtx's
// "regalloc" span with a recolor marker, so traces show which allocations
// skipped the analysis phases.
func (pr *Prep) ReColorCtx(c, sharedBudget int, x obs.Ctx) (*Alloc, error) {
	sp := x.Span("regalloc",
		obs.String("func", pr.fn.Name),
		obs.Int("reg_budget", c),
		obs.Int("shared_budget", sharedBudget),
		obs.Bool("recolor", true))
	a, rounds, spilled, err := run(pr.fn, pr, c, sharedBudget, sp.Ctx())
	if err != nil {
		sp.SetAttr(obs.String("error", err.Error()))
	} else {
		sp.SetAttr(obs.Int("rounds", rounds), obs.Int("spilled_vars", spilled))
		m := x.Metrics()
		m.Counter("regalloc.recolors").Add(1)
		m.Counter("regalloc.rounds").Add(uint64(rounds))
		m.Counter("regalloc.spilled_vars").Add(uint64(spilled))
	}
	sp.End()
	return a, err
}
