package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/interp"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sim"
)

// Launch describes the dynamic side of a kernel: its grid and how many
// times the application invokes it (the loop around the kernel that the
// runtime tuner exploits).
type Launch struct {
	GridWarps  int
	Iterations int
	// IterationGrids, when set, gives each iteration its own grid size —
	// the paper's bfs case, where "different amounts of work in each
	// iteration" defeat naive runtime comparison. The tuner then
	// normalizes feedback by the iteration's work (Section 4.2's
	// multiplicative factor). Overrides GridWarps/Iterations.
	IterationGrids []int
}

// IterationRecord is one tuning iteration's outcome.
type IterationRecord struct {
	Candidate *Candidate
	Stats     *sim.Stats
	Split     bool // this iteration was a kernel-splitting piece
}

// TuneReport is the end-to-end result of compiling and dynamically tuning
// a kernel on the simulated device.
type TuneReport struct {
	Compile *CompileResult
	Chosen  *Candidate
	// TuneIterations is how many feedback rounds the tuner needed.
	TuneIterations int
	// History records every executed iteration (including post-converge
	// runs of the final kernel).
	History []IterationRecord
	// TotalCycles sums all iterations — tuning overhead included.
	TotalCycles uint64
	// TotalEnergy sums energy across iterations.
	TotalEnergy float64
	// Checksum of the last full iteration (for correctness checks).
	Checksum uint64
	// KernelSplit reports whether splitting created the iterations.
	KernelSplit bool
	// Decisions is the tuner's per-iteration decision log (empty for the
	// static-selection path, which takes no runtime decisions).
	Decisions []Decision
}

// launchPlan is a launch normalised into the sub-launches the runtime
// executes, in order: n of them, the i-th given by at(i). It is O(1) in
// the iteration count, so asking whether a launch can be tuned costs
// nothing however many iterations a request claims.
type launchPlan struct {
	n      int
	split  bool         // the pieces together cover one invocation
	grid   int          // every sub-launch's grid, unless grids or pieces is set
	grids  []int        // one grid per application iteration (Launch.IterationGrids)
	pieces []SplitPiece // a kernel split's pieces
}

// at returns the i-th sub-launch.
func (pl *launchPlan) at(i int) SplitPiece {
	switch {
	case pl.pieces != nil:
		return pl.pieces[i]
	case pl.grids != nil:
		return SplitPiece{Warps: pl.grids[i]}
	}
	return SplitPiece{Warps: pl.grid}
}

// plan turns a launch into the sub-launches the runtime executes: one per
// application iteration (each with its own grid when IterationGrids is
// set), or — for a kernel invoked once — the pieces of a kernel split when
// the grid is large enough (each piece should still fill the device a few
// times over), else the single invocation as one piece. It is the only
// place a Launch is normalised and the only caller of PlanSplit, so "can
// this launch be tuned?" has one answer: more than one sub-launch.
func (r *Realizer) plan(blockDim int, lc Launch) launchPlan {
	if len(lc.IterationGrids) > 0 {
		lc.Iterations = len(lc.IterationGrids)
		lc.GridWarps = lc.IterationGrids[0]
	}
	if lc.Iterations > 1 {
		return launchPlan{n: lc.Iterations, grid: lc.GridWarps, grids: lc.IterationGrids}
	}
	wpb := blockDim / r.Dev.WarpSize
	if sp, err := PlanSplit(lc.GridWarps, 4, r.Dev.SMs*wpb*2); err == nil {
		return launchPlan{n: len(sp.Pieces), split: true, pieces: sp.Pieces}
	}
	return launchPlan{n: 1, grid: lc.GridWarps}
}

// CanTune reports whether a launch offers the runtime tuner feedback
// iterations: either the application invokes the kernel more than once,
// or a single invocation's grid is large enough for kernel splitting. It
// is the canTune decision Tune makes before compiling, exposed so callers
// that build or cache compile artifacts — `orion build`, `orion serve`'s
// fat-binary keys — agree with the pipeline byte-for-byte.
func (r *Realizer) CanTune(p *isa.Program, lc Launch) bool {
	return r.plan(p.BlockDim, lc).n > 1
}

// Tune runs the full Orion pipeline: compile-time tuning, then runtime
// adaptation over the launch's iterations. Kernels invoked only once are
// kernel-split into sub-launches when the grid allows; otherwise the
// static selection runs.
func (r *Realizer) Tune(p *isa.Program, lc Launch) (*TuneReport, error) {
	cr, err := r.Compile(p, r.CanTune(p, lc))
	if err != nil {
		return nil, err
	}
	return r.TuneCompiled(cr, lc)
}

// TuneCompiled runs only the runtime side (Figure 9) against an existing
// compile result — e.g., one decoded from a multi-version binary, the
// paper's deployment model: compile once, adapt on every run.
func (r *Realizer) TuneCompiled(cr *CompileResult, lc Launch) (*TuneReport, error) {
	x := r.Obs.Ctx()
	sp := x.Span("tune",
		obs.String("kernel", cr.Original.Prog.Name),
		obs.String("direction", cr.Direction.String()))
	rep, err := r.tuneCompiled(cr, lc, sp.Ctx())
	if err != nil {
		sp.SetAttr(obs.String("error", err.Error()))
	} else {
		sp.SetAttr(
			obs.Int("chosen_warps", rep.Chosen.TargetWarps),
			obs.Int("tune_iterations", rep.TuneIterations),
			obs.Uint64("total_cycles", rep.TotalCycles),
			obs.Bool("kernel_split", rep.KernelSplit))
		m := x.Metrics()
		m.Counter("tune.runs").Add(1)
		m.Counter("tune.iterations").Add(uint64(rep.TuneIterations))
		m.Gauge("tune.selected_warps").Set(float64(rep.Chosen.TargetWarps))
	}
	sp.End()
	return rep, err
}

// tuneCompiled is the uninstrumented Figure 9 loop; x scopes the
// per-iteration spans under the caller's "tune" span. The runtime does not
// distinguish an application iteration from a kernel-splitting piece —
// splitting exists to create tuning iterations — so one loop walks both.
func (r *Realizer) tuneCompiled(cr *CompileResult, lc Launch, x obs.Ctx) (*TuneReport, error) {
	pl := r.plan(cr.Original.Prog.BlockDim, lc)
	rep := &TuneReport{Compile: cr, KernelSplit: pl.split}
	run := func(ix obs.Ctx, cand *Candidate, piece SplitPiece) (*sim.Stats, error) {
		// Every run re-verifies its candidate (a memoized lookup after the
		// first check) — decoded multi-version binaries reach execution
		// only through here, so this is their gate.
		if err := r.verifyCandidate(cr, cand, ix); err != nil {
			return nil, err
		}
		st, err := cand.Version.RunAtCtx(r.Dev, r.Cache, cand.TargetWarps,
			&interp.Launch{Prog: cand.Version.Prog, GridWarps: piece.Warps, FirstWarp: piece.FirstWarp}, ix)
		if err != nil {
			return nil, err
		}
		rep.History = append(rep.History, IterationRecord{Candidate: cand, Stats: st, Split: pl.split})
		rep.TotalCycles += st.Cycles
		rep.TotalEnergy += st.Energy
		return st, nil
	}

	if pl.n == 1 {
		// Static selection: run the compiler-picked kernel once.
		if cr.StaticChoice == nil {
			cr.StaticChoice = r.staticSelect(cr.Original.Prog, cr)
		}
		cand := cr.StaticChoice
		ssp := x.Span("tune-static", obs.Int("target_warps", cand.TargetWarps))
		st, err := run(ssp.Ctx(), cand, pl.at(0))
		if err != nil {
			ssp.SetAttr(obs.String("error", err.Error()))
			ssp.End()
			return nil, err
		}
		ssp.End()
		rep.Chosen = cand
		rep.Checksum = st.Checksum
		return rep, nil
	}

	tuner := NewTuner(cr)
	for it := 0; it < pl.n; it++ {
		piece := pl.at(it)
		cand := tuner.Next()
		isp := x.Span("tune-iter",
			obs.Int("iter", it+1),
			obs.Int("target_warps", cand.TargetWarps),
			obs.Int("grid_warps", piece.Warps))
		before := len(tuner.Decisions())
		st, err := run(isp.Ctx(), cand, piece)
		if err != nil {
			isp.End()
			return nil, err
		}
		// The checksum is the last full invocation's: the pieces of a split
		// combine, an application iteration replaces the one before.
		if pl.split {
			rep.Checksum ^= st.Checksum
		} else {
			rep.Checksum = st.Checksum
		}
		if tuner.Finalized() == nil {
			// Iterations and pieces can differ in size; compare runtimes
			// per warp (Section 4.2's multiplicative factor).
			tuner.FeedbackWork(cand, float64(st.Cycles), float64(piece.Warps))
			if tuner.Finalized() != nil {
				rep.TuneIterations = tuner.Iterations()
			}
		}
		if isp != nil {
			// Stamp the span with the decision this round recorded.
			isp.SetAttr(obs.Uint64("cycles", st.Cycles))
			if dec := tuner.Decisions(); len(dec) > before {
				d := dec[len(dec)-1]
				isp.SetAttr(
					obs.Float("norm_runtime", d.Runtime),
					obs.Float("slowdown_vs_best", d.Slowdown),
					obs.Bool("accepted", d.Accepted),
					obs.String("reason", d.Reason))
			} else {
				isp.SetAttr(obs.String("reason", "converged; running the selected kernel"))
			}
			isp.End()
		}
	}
	rep.Chosen = tuner.Next() // finalized (or best-so-far) kernel
	if rep.TuneIterations == 0 {
		rep.TuneIterations = tuner.Iterations()
	}
	rep.Decisions = tuner.Decisions()
	return rep, nil
}

// LevelResult is one point of an exhaustive occupancy sweep.
type LevelResult struct {
	TargetWarps int
	Version     *Version
	Stats       *sim.Stats
	// RealizeTime is how long this level's realization took (wall clock;
	// near-zero for levels served from the ladder or the memo cache).
	RealizeTime time.Duration
}

// Occupancy returns the level's occupancy fraction.
func (l *LevelResult) Occupancy(maxWarps int) float64 {
	return float64(l.TargetWarps) / float64(maxWarps)
}

// Sweep compiles and runs the kernel at every achievable occupancy level
// (the paper's exhaustive-search comparison: Orion-Min is the slowest
// level, Orion-Max the fastest). All levels realize through one shared
// ladder context, so the middle-end analyses are built once and levels
// that round onto one budget pair share an allocation. Levels are
// independent, so they compile and simulate concurrently; each level's
// simulation is deterministic, so the results do not depend on scheduling.
func (r *Realizer) Sweep(p *isa.Program, gridWarps int) ([]LevelResult, error) {
	return r.SweepCtx(context.Background(), p, gridWarps)
}

// SweepCtx is Sweep with cancellation: once ctx is done no further level
// is dispatched (levels already running finish) and the sweep returns
// ctx.Err() — never a partial table.
func (r *Realizer) SweepCtx(ctx context.Context, p *isa.Program, gridWarps int) ([]LevelResult, error) {
	x := r.Obs.Ctx()
	sp := x.Span("sweep",
		obs.String("kernel", p.Name),
		obs.Int("grid_warps", gridWarps))
	out, err := r.sweep(ctx, p, gridWarps, sp.Ctx())
	if err != nil {
		sp.SetAttr(obs.String("error", err.Error()))
	} else {
		sp.SetAttr(obs.Int("levels", len(out)))
	}
	sp.End()
	return out, err
}

// sweep is the uninstrumented fan-out; x scopes the per-level spans under
// the caller's "sweep" span.
func (r *Realizer) sweep(ctx context.Context, p *isa.Program, gridWarps int, x obs.Ctx) ([]LevelResult, error) {
	levels, err := r.levels(p)
	if err != nil {
		return nil, err
	}
	lad := r.NewLadder(p)
	type slot struct {
		res LevelResult
		err error
	}
	slots := make([]slot, len(levels))
	fork := x.Fork("level", len(levels))
	err = par.ForEachCtx(ctx, 0, len(levels), func(i int) {
		lvl := levels[i]
		lx := fork.At(i)
		start := time.Now()
		v, err := lad.RealizeCtx(lvl, lx)
		realizeTime := time.Since(start)
		if err != nil {
			slots[i].err = err
			return
		}
		st, err := v.RunAtCtx(r.Dev, r.Cache, lvl, &interp.Launch{Prog: v.Prog, GridWarps: gridWarps}, lx)
		if err != nil {
			slots[i].err = err
			return
		}
		slots[i].res = LevelResult{TargetWarps: lvl, Version: v, Stats: st, RealizeTime: realizeTime}
	})
	fork.Join()
	if err != nil {
		return nil, err
	}

	var out []LevelResult
	var inf *ErrInfeasible
	for i := range slots {
		switch err := slots[i].err; {
		case err == nil:
			out = append(out, slots[i].res)
		case !errors.As(err, &inf): // infeasible levels are simply absent
			return nil, err
		}
	}
	if len(out) == 0 {
		// Every level was infeasible; the lowest one's reason is the kernel's.
		return nil, fmt.Errorf("core: no occupancy level of %s is realizable: %w", p.Name, slots[0].err)
	}
	return out, nil
}

// Baseline compiles the nvcc-like reference: a competent allocation that
// minimizes spills (largest hardware register budget) and runs at whatever
// occupancy that register usage naturally allows — no occupancy search,
// no runtime adaptation.
func (r *Realizer) Baseline(p *isa.Program, gridWarps int) (*Version, *sim.Stats, error) {
	x := r.Obs.Ctx()
	sp := x.Span("baseline", obs.String("kernel", p.Name))
	levels, err := r.levels(p)
	if err != nil {
		sp.End()
		return nil, nil, err
	}
	v, err := r.RealizeCtx(p, levels[0], sp.Ctx())
	if err != nil {
		sp.End()
		return nil, nil, err
	}
	st, err := v.RunAtCtx(r.Dev, r.Cache, v.Natural.ActiveWarps,
		&interp.Launch{Prog: v.Prog, GridWarps: gridWarps}, sp.Ctx())
	if err != nil {
		sp.End()
		return nil, nil, err
	}
	sp.SetAttr(obs.Int("natural_warps", v.Natural.ActiveWarps), obs.Uint64("cycles", st.Cycles))
	sp.End()
	return v, st, nil
}
