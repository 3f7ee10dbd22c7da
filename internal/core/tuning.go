package core

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/par"
)

// Direction is the occupancy tuning direction chosen at compile time.
type Direction uint8

// Tuning directions.
const (
	Increasing Direction = iota + 1
	Decreasing
)

// String names the direction.
func (d Direction) String() string {
	if d == Decreasing {
		return "decreasing"
	}
	return "increasing"
}

// MaxLive computes the paper's max-live metric for a whole program: the
// worst-case register demand over any call chain, using per-function
// max-live from the pruned-SSA liveness (Section 3.3). Like Compile, it
// rejects a program that fails isa.Validate.
func MaxLive(p *isa.Program) (int, error) {
	if err := isa.Validate(p); err != nil {
		return 0, err
	}
	per := make([]int, len(p.Funcs))
	for fi, f := range p.Funcs {
		v, err := ir.SplitWebs(f)
		if err != nil {
			return 0, fmt.Errorf("maxlive %s: %w", f.Name, err)
		}
		live := ir.ComputeLiveness(v)
		per[fi] = live.MaxLive(v)
	}
	order, _ := p.CallOrder() // acyclic: p passed Validate
	return chainSums(p, order, per)[0], nil
}

// DirectionThreshold returns the max-live threshold that decides the
// tuning direction on a device: the register count per thread at which the
// hardware can no longer sustain maximum occupancy (32 for the paper's
// Kepler platform, Section 3.3).
func DirectionThreshold(d *device.Device) int {
	return d.RegsPerSM / d.MaxThreadsPerSM
}

// CompileResult is the output of compile-time tuning: the original
// version, the candidate list for runtime adaptation (in tuning
// direction), and the fail-safe versions for the opposite direction.
type CompileResult struct {
	MaxLive   int
	Direction Direction
	// Source is the input program every version was realized from: the
	// differential oracle's reference, and what a multi-version binary is
	// matched against. TuneCompiled refuses a result without one.
	Source *isa.Program
	// Original is the initial version: all live values in the minimal
	// number of registers (or the hardware per-thread maximum).
	Original *Version
	// Candidates are the versions the runtime walks, ordered in the tuning
	// direction. For the decreasing direction these are occupancy levels of
	// the original binary (lowering needs no recompilation — shared-memory
	// padding does it), so Candidates may alias Original with descending
	// TargetWarps.
	Candidates []*Candidate
	// FailSafe holds versions for the opposite direction (paper §3.3).
	FailSafe []*Candidate
	// StaticChoice is set when the kernel cannot be tuned dynamically
	// (canTune=false): the statically selected candidate.
	StaticChoice *Candidate
}

// Candidate pairs a compiled version with the occupancy level to run it
// at (levels below the binary's natural residency use shared padding).
type Candidate struct {
	Version     *Version
	TargetWarps int
}

// Occupancy returns the candidate's occupancy fraction on device d.
func (c *Candidate) Occupancy(d *device.Device) float64 {
	return float64(c.TargetWarps) / float64(d.MaxWarpsPerSM)
}

// maxCandidates caps the candidate set (paper: at most five versions).
const maxCandidates = 5

// Compile runs the paper's Figure 8 occupancy update algorithm.
//
// canTune reports whether the benchmark offers tuning iterations (a loop
// around the kernel, or enough threads for kernel splitting). When false,
// staticSelect's latency-hiding rule picks a single kernel into
// StaticChoice.
func (r *Realizer) Compile(p *isa.Program, canTune bool) (*CompileResult, error) {
	x := r.Obs.Ctx()
	sp := x.Span("compile",
		obs.String("kernel", p.Name),
		obs.Bool("can_tune", canTune))
	res, err := r.compile(p, canTune, sp.Ctx())
	if err != nil {
		sp.SetAttr(obs.String("error", err.Error()))
	} else {
		sp.SetAttr(
			obs.Int("max_live", res.MaxLive),
			obs.String("direction", res.Direction.String()),
			obs.Int("candidates", len(res.Candidates)),
			obs.Int("fail_safe", len(res.FailSafe)))
		x.Metrics().Counter("compile.kernels").Add(1)
	}
	sp.End()
	return res, err
}

// compile is the uninstrumented Figure 8 pipeline; x scopes its phase
// spans under the caller's "compile" span. Every realization — max-live,
// the original version, the candidate ladder, and the fail-safe — flows
// through one shared ladder context, so the middle-end analyses are built
// once per function and clean allocations carry across register budgets.
//
// The phases run as a task graph whose edges are their data dependencies
// (DESIGN.md §7): lint, max-live and the oracle's reference read only p;
// the original's gates read only the original, and the rest of Figure 8
// only its natural occupancy. Errors are reported in the serial order.
func (r *Realizer) compile(p *isa.Program, canTune bool, x obs.Ctx) (*CompileResult, error) {
	vsp := x.Span("validate")
	err := isa.Validate(p)
	vsp.End()
	if err != nil {
		return nil, err
	}
	levels, levelsErr := r.levels(p)
	lad := r.NewLadder(p)
	var lintErr, mlErr error
	var ml int
	overlap(x, "input",
		func(ix obs.Ctx) { lintErr = r.lintProgram(p, 0, ix) },
		func(ix obs.Ctx) {
			msp := ix.Span("maxlive")
			if ml, mlErr = lad.maxLive(msp.Ctx()); mlErr == nil {
				msp.SetAttr(obs.Int("max_live", ml))
			}
			msp.End()
		},
		func(ix obs.Ctx) {
			// Only an input whose block fits the device can have an original
			// version; the reference run allocates what the input declares.
			if r.Verify && levelsErr == nil && p.SharedBytes <= r.Dev.SharedBytes(r.Cache) {
				sp := ix.Span("verify.reference", obs.String("kernel", p.Name))
				reference(p, sp.Ctx())
				sp.End()
			}
		})
	if lintErr != nil {
		return nil, lintErr
	}
	if mlErr != nil {
		return nil, fmt.Errorf("maxlive %s: %w", p.Name, mlErr)
	}
	res := &CompileResult{MaxLive: ml, Source: p}
	if ml >= DirectionThreshold(r.Dev) {
		res.Direction = Increasing
	} else {
		res.Direction = Decreasing
	}

	if levelsErr != nil {
		return nil, levelsErr
	}
	minLevel := levels[0]

	// Original version: everything lives in the minimal number of
	// registers (target the lowest occupancy level, i.e., the largest
	// register budget the hardware offers).
	orig, err := lad.realize(minLevel, x)
	if err != nil {
		return nil, fmt.Errorf("compile %s: original version: %w", p.Name, err)
	}
	res.Original = orig

	// The original's gates beside the rest of Figure 8, which needs only
	// its natural occupancy; a gate failure drops what the other produced.
	var gateErr error
	overlap(x, "fig8",
		func(gx obs.Ctx) { gateErr = lad.gate(orig, minLevel, gx) },
		func(cx obs.Ctx) { r.candidates(res, lad, levels, cx) })
	if gateErr != nil {
		return nil, fmt.Errorf("compile %s: original version: %w", p.Name, gateErr)
	}

	if !canTune {
		ssp := x.Span("static-select")
		res.StaticChoice = r.staticSelect(p, res)
		ssp.SetAttr(obs.Int("chosen_warps", res.StaticChoice.TargetWarps))
		ssp.End()
	}
	return res, nil
}

// candidates fills res.Candidates and res.FailSafe from the realized
// original: the upper-level fan-out in the increasing direction, the
// padded lower levels and the fail-safe walk in the decreasing one.
func (r *Realizer) candidates(res *CompileResult, lad *Ladder, levels []int, x obs.Ctx) {
	orig := res.Original
	if res.Direction == Increasing {
		// Conservative version: the highest occupancy at which all values
		// still fit on-chip (registers + shared spill slots, no local
		// spills). Candidate levels are independent realizations, so they
		// compile concurrently; index-slotted collection keeps the ladder
		// in level order regardless of scheduling.
		var upper []int
		for _, lvl := range levels {
			if lvl > orig.Natural.ActiveWarps {
				upper = append(upper, lvl)
			}
		}
		slots := make([]*Version, len(upper))
		fork := x.Fork("candidate", len(upper))
		realize := func(i int) {
			// An unrealizable level leaves its slot nil.
			if v, err := lad.RealizeCtx(upper[i], fork.At(i)); err == nil {
				slots[i] = v
			}
		}
		// Levels whose budgets round to one pair share one allocation. The
		// group's first level realizes it before the others ask, so the work
		// lands in the same trace slot every run.
		groups := lad.groupByBudget(upper)
		par.ForEach(0, len(groups), func(g int) {
			realize(groups[g][0])
			rest := groups[g][1:]
			par.ForEach(0, len(rest), func(j int) { realize(rest[j]) })
		})
		fork.Join()
		var ladder []*Candidate
		conservativeWarps := 0
		for i, v := range slots {
			if v == nil {
				continue
			}
			if v.LocalSlots == 0 {
				conservativeWarps = upper[i]
			}
			ladder = append(ladder, &Candidate{Version: v, TargetWarps: upper[i]})
		}
		// Keep the candidates from the conservative level up to max,
		// thinning to the cap.
		var kept []*Candidate
		for _, c := range ladder {
			if c.TargetWarps >= conservativeWarps {
				kept = append(kept, c)
			}
		}
		if len(kept) == 0 {
			kept = ladder
		}
		kept = thin(kept, maxCandidates-1)
		res.Candidates = kept
		// Fail-safe: enable decreasing from the original binary.
		if down := lowerLevels(levels, orig.Natural.ActiveWarps, orig); len(down) > 0 {
			res.FailSafe = down[:1]
		}
	} else {
		// Decreasing: candidates are lower occupancy levels of the original
		// binary (shared-memory padding realizes them; Figure 8 lines
		// 16-19 note no extra code versions are needed).
		res.Candidates = lowerLevels(levels, orig.Natural.ActiveWarps, orig)
		if len(res.Candidates) > maxCandidates {
			res.Candidates = res.Candidates[:maxCandidates]
		}
		// Fail-safe: the conservative higher-occupancy version plus the
		// next occupancy up, if any exists.
		for _, lvl := range levels {
			if lvl <= orig.Natural.ActiveWarps {
				continue
			}
			v, err := lad.RealizeCtx(lvl, x)
			if err == nil {
				res.FailSafe = append(res.FailSafe, &Candidate{Version: v, TargetWarps: lvl})
				break
			}
		}
	}
}

// lowerLevels enumerates occupancy levels strictly below natural residency
// in descending order, all running the given version with padding.
func lowerLevels(levels []int, natural int, v *Version) []*Candidate {
	var out []*Candidate
	for i := len(levels) - 1; i >= 0; i-- {
		if levels[i] < natural {
			out = append(out, &Candidate{Version: v, TargetWarps: levels[i]})
		}
	}
	return out
}

// thin reduces a ladder to at most n entries, always keeping the first
// (conservative) and last (maximum) levels.
func thin(c []*Candidate, n int) []*Candidate {
	if len(c) <= n || n <= 1 {
		if len(c) > n && n >= 1 {
			return c[:n]
		}
		return c
	}
	out := make([]*Candidate, 0, n)
	out = append(out, c[0])
	for i := 1; i < n-1; i++ {
		out = append(out, c[i*(len(c)-1)/(n-1)])
	}
	out = append(out, c[len(c)-1])
	return out
}

// staticSelect is the no-tuning path of Figure 8 (lines 15-19, the static
// selection of [11]). A decreasing kernel keeps the original version — the
// paper's backprop case: "it makes more sense to simply default to the
// original version of the kernel". An increasing kernel takes, among the
// original and the candidates, the lowest occupancy whose warps cover
// latencyHidingWarps(p), or the highest occupancy when none does.
func (r *Realizer) staticSelect(p *isa.Program, res *CompileResult) *Candidate {
	orig := &Candidate{Version: res.Original, TargetWarps: res.Original.Natural.ActiveWarps}
	if res.Direction == Decreasing {
		return orig
	}
	need := r.latencyHidingWarps(p)
	var covers *Candidate
	highest := orig
	for _, c := range append([]*Candidate{orig}, res.Candidates...) {
		if c.TargetWarps >= need && (covers == nil || c.TargetWarps < covers.TargetWarps) {
			covers = c
		}
		if c.TargetWarps > highest.TargetWarps {
			highest = c
		}
	}
	if covers != nil {
		return covers
	}
	return highest
}

// latencyHidingWarps is the warps per SM the rule asks for, from the
// static instruction mix: with gap = instructions per global load (at
// least 1), DRAMLatency / (gap · ALULatency), clamped to [1,
// MaxWarpsPerSM]; 1 for a kernel without global loads. It stands in for
// [11]'s WS · CDI / DL.
func (r *Realizer) latencyHidingWarps(p *isa.Program) int {
	mem, total := 0, 0
	for _, f := range p.Funcs {
		for i := range f.Instrs {
			total++
			if f.Instrs[i].Op == isa.OpLdG {
				mem++
			}
		}
	}
	if total == 0 || mem == 0 {
		return 1
	}
	// Each global load keeps a warp stalled for ~DRAMLatency cycles; in
	// that window a warp issues about total/mem other instructions.
	gap := total / mem
	if gap == 0 {
		gap = 1
	}
	need := r.Dev.DRAMLatency / (gap * r.Dev.ALULatency)
	if need < 1 {
		need = 1
	}
	if need > r.Dev.MaxWarpsPerSM {
		need = r.Dev.MaxWarpsPerSM
	}
	return need
}
