// Package core implements the paper's contribution: the Orion occupancy
// tuning framework. It contains occupancy realization (turning a target
// occupancy level into a fully allocated binary via the Chaitin-Briggs
// allocator and the compressible stack), the compile-time tuning loop of
// Figure 8 (max-live direction choice, candidate generation, static
// selection), and the runtime adaptation algorithm of Figure 9 (feedback
// hill climbing with kernel splitting).
package core

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/interp"
	"repro/internal/interproc"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/occupancy"
	"repro/internal/prof"
	"repro/internal/sim"
)

// minFuncBudget is the smallest register budget a function can be
// allocated with (operands of the widest instruction plus scratch).
const minFuncBudget = 8

// Version is one occupancy-realized kernel binary.
type Version struct {
	Prog *isa.Program
	// TargetWarps is the occupancy level (warps per SM) this version was
	// compiled for.
	TargetWarps int
	// RegsPerThread is the realized per-thread register requirement (the
	// register high-water across call chains).
	RegsPerThread int
	// SharedPerBlock is user shared memory plus shared spill slots.
	SharedPerBlock int
	// LocalSlots is the per-thread local-memory spill requirement.
	LocalSlots int
	// Moves is total compressible-stack movement count (static).
	Moves int
	// Natural is the residency the binary achieves with no padding.
	Natural occupancy.Result

	// MaxLivePre and MaxLivePost report the entry chain's max-live metric
	// before and after the pressure-reducing middle end (internal/opt) ran
	// under this realization's budget. Equal (and equal to the program's
	// baseline max-live) when the pipeline is off or never fired; zero on
	// decoded or hand-built versions.
	MaxLivePre  int
	MaxLivePost int

	// Debug is the provenance map from this realization's register
	// allocation: the budget it was colored for and the spill webs each
	// function evicted, letting profiles resolve spill instructions back
	// to allocator decisions. Nil on decoded or hand-built versions.
	Debug *prof.DebugInfo
}

type fingerprintKey struct{}

// fingerprintOf returns p's content hash (the simulation-cache key
// component), held on p: the ladder seeds it when it interns a fill, so
// every level of one binary shares one hash.
func fingerprintOf(p *isa.Program) isa.Fingerprint {
	fp, _ := p.Derived(fingerprintKey{}, func() (any, error) { return p.Fingerprint(), nil })
	return fp.(isa.Fingerprint)
}

// Occupancy returns the realized occupancy fraction.
func (v *Version) Occupancy(d *device.Device) float64 {
	return float64(v.Natural.ActiveWarps) / float64(d.MaxWarpsPerSM)
}

// Realizer compiles versions of one kernel for a device/cache pairing.
type Realizer struct {
	Dev   *device.Device
	Cache device.CacheConfig
	// Interproc selects the compressible-stack options (ablations for the
	// paper's Figure 5 flip these off).
	Interproc interproc.Options
	// Obs, when non-nil, collects spans and metrics from every compile,
	// tune, sweep, and simulation driven through this realizer. Nil (the
	// default) disables all instrumentation at the cost of one pointer
	// check per call.
	Obs *obs.Collector
	// Verify, when set, runs the post-realization allocation verifier and
	// the differential execution oracle on every realized version and on
	// every candidate the runtime tuner executes; any violation fails the
	// compile with a *VerifyError instead of shipping a bad binary.
	// NewRealizer turns it on; pass -verify=false to the CLIs to opt out.
	Verify bool
	// Lint selects how the static analyzer (internal/sa) gates
	// compilation: strict rejects input programs and realized versions
	// with error-severity findings (divergent barriers, shared races) via
	// *AnalysisError, off skips analysis.
	// NewRealizer defaults to LintStrict; the CLIs expose -lint.
	Lint LintMode
	// Opt enables the pressure-reducing middle end (internal/opt): when a
	// function's max-live exceeds the ladder's per-function register budget,
	// the pressure-aware scheduler runs before allocation, internal/tv
	// checks the schedule's legality (a rejection reverts it), and the
	// allocator colors the scheduled body instead. Off by default; realized
	// output with Opt false is byte-identical to a realizer without the
	// field.
	Opt bool

	caches *Caches // nil (a Realizer literal) means the process default
}

// NewRealizer returns a Realizer with the full optimization set on the
// process default Caches.
func NewRealizer(d *device.Device, cc device.CacheConfig) *Realizer {
	return defaultCaches.NewRealizer(d, cc)
}

// NewRealizer returns a Realizer with the full optimization set whose
// realizations and launches c holds.
func (c *Caches) NewRealizer(d *device.Device, cc device.CacheConfig) *Realizer {
	return &Realizer{Dev: d, Cache: cc, Interproc: interproc.DefaultOptions(), Verify: true, Lint: LintStrict, caches: c}
}

// owner is the Caches the realizer's work goes into.
func (r *Realizer) owner() *Caches {
	if r.caches == nil {
		return defaultCaches
	}
	return r.caches
}

// ErrInfeasible reports that a target occupancy cannot be realized.
type ErrInfeasible struct {
	TargetWarps int
	Reason      string
}

// Error describes why the occupancy level cannot be realized.
func (e *ErrInfeasible) Error() string {
	return fmt.Sprintf("core: occupancy level %d warps/SM infeasible: %s", e.TargetWarps, e.Reason)
}

// levels returns the occupancy levels p's block size allows on the
// device, lowest first, or an *ErrInfeasible when one block holds more
// warps than an SM does and there is no level at all.
func (r *Realizer) levels(p *isa.Program) ([]int, error) {
	levels := occupancy.Levels(r.Dev, p.BlockDim)
	if len(levels) == 0 {
		return nil, &ErrInfeasible{
			TargetWarps: p.BlockDim / r.Dev.WarpSize,
			Reason:      fmt.Sprintf("a block of %d threads exceeds the %d warps an SM holds", p.BlockDim, r.Dev.MaxWarpsPerSM),
		}
	}
	return levels, nil
}

// Realize compiles the program so that at least targetWarps warps are
// resident per SM (paper Section 3.2, "realizing occupancy"): the register
// budget follows from the occupancy formula; values that do not fit go to
// shared-memory spill slots while shared capacity lasts, then to local
// memory. Functions are allocated caller-first so callee budgets account
// for the compressed stack heights at their call sites.
//
// Realization is memoized by content in the realizer's Caches: calls with
// the same (program fingerprint, device, cache config, allocator options)
// share one realization, so targets that round onto one budget pair share
// one allocation and one program. The returned Version and its program are
// immutable.
//
// Realize builds a throwaway ladder context per call; callers realizing a
// program at several occupancy levels should share one via NewLadder so
// the middle-end analyses carry across levels.
func (r *Realizer) Realize(p *isa.Program, targetWarps int) (*Version, error) {
	return r.RealizeCtx(p, targetWarps, r.Obs.Ctx())
}

// RealizeCtx is Realize with an explicit observability context (parallel
// compile ladders pass per-worker fork contexts so span streams merge
// deterministically). Every call records a "realize" span; only a
// budget pair's fill carries the allocator's spans.
func (r *Realizer) RealizeCtx(p *isa.Program, targetWarps int, x obs.Ctx) (*Version, error) {
	return r.NewLadder(p).RealizeCtx(targetWarps, x)
}

// assembleVersion lays out the allocated program and derives its natural
// residency — the budget-independent tail of a budget realization.
func assembleVersion(r *Realizer, p, np *isa.Program, totalMoves int) (*Version, error) {
	layout, err := interp.NewLayout(np)
	if err != nil {
		return nil, err
	}
	regs := layout.RegHighWater
	if regs == 0 {
		regs = 1
	}
	sharedPerBlock := p.SharedBytes + layout.SharedSpillSlots*4*p.BlockDim
	var occ occupancy.Result
	if regs <= r.Dev.MaxRegsPerThread {
		// Chains that overflow the hardware register budget leave Natural
		// zero; Realize reacts by tightening the per-function budget.
		occ, err = occupancy.Calc(r.Dev, r.Cache, occupancy.Config{
			RegsPerThread:  regs,
			SharedPerBlock: sharedPerBlock,
			BlockDim:       p.BlockDim,
		})
		if err != nil {
			return nil, err
		}
	}
	return &Version{
		Prog:           np,
		RegsPerThread:  regs,
		SharedPerBlock: sharedPerBlock,
		LocalSlots:     layout.LocalSpillSlots,
		Moves:          totalMoves,
		Natural:        occ,
	}, nil
}

// addedCost scores an allocation's overhead instructions — spill accesses
// and register moves (compressible-stack compress/restore traffic; the
// function's own moves appear identically in every variant and cancel).
// Instructions inside loops are weighted up, since they execute once per
// iteration while cold spills execute once.
const loopWeight = 8

func addedCost(f *isa.Function) int {
	cfg := ir.BuildCFG(f)
	inCycle := make([]bool, len(cfg.Blocks))
	for b := range cfg.Blocks {
		if !cfg.Reachable(b) {
			continue
		}
		// b is in a cycle iff b is reachable from one of its successors.
		seen := make([]bool, len(cfg.Blocks))
		stack := append([]int(nil), cfg.Blocks[b].Succs...)
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if x == b {
				inCycle[b] = true
				break
			}
			if seen[x] {
				continue
			}
			seen[x] = true
			stack = append(stack, cfg.Blocks[x].Succs...)
		}
	}
	cost := 0
	for i := range f.Instrs {
		in := &f.Instrs[i]
		if !in.IsSpill() && in.Op != isa.OpMov {
			continue
		}
		w := 1
		if bi := cfg.BlockOf[i]; bi >= 0 && inCycle[bi] {
			w = loopWeight
		}
		cost += w
	}
	return cost
}

// RunAt simulates the version at a (possibly reduced) occupancy level.
// Levels below the binary's natural residency are realized the way the
// paper's runtime does it: by padding shared memory per block, which needs
// no recompilation. Levels above the natural residency are not possible.
// The launch always runs v.Prog: only lc's GridWarps and FirstWarp are read.
//
// The simulator is deterministic, so untraced launches are memoized in the
// process default Caches by (program fingerprint, device, cache config,
// level, grid): re-running a tuned candidate or re-measuring a baseline in
// another experiment is a lookup. The returned Stats is shared and must
// not be mutated.
func (v *Version) RunAt(d *device.Device, cc device.CacheConfig, targetWarps int, lc *interp.Launch) (*sim.Stats, error) {
	return v.RunAtCtx(d, cc, targetWarps, lc, obs.Ctx{})
}

// RunAtCtx is RunAt with an observability context: run-cache hits emit a
// "simulate.cached" span carrying the memoized cycle count; fill paths
// carry the full "simulate" span from package sim.
func (v *Version) RunAtCtx(d *device.Device, cc device.CacheConfig, targetWarps int, lc *interp.Launch, x obs.Ctx) (*sim.Stats, error) {
	return defaultCaches.runAt(v, d, cc, targetWarps, lc, x)
}

// runAt is RunAtCtx through c's run memo.
func (c *Caches) runAt(v *Version, d *device.Device, cc device.CacheConfig, targetWarps int, lc *interp.Launch, x obs.Ctx) (*sim.Stats, error) {
	key := runKey{
		prog:        fingerprintOf(v.Prog),
		dev:         d.Fingerprint(),
		cache:       cc,
		targetWarps: targetWarps,
		gridWarps:   lc.GridWarps,
		firstWarp:   lc.FirstWarp,
	}
	filled := false
	st, err := c.run.Do(key, func() (*sim.Stats, error) {
		filled = true
		return v.simulate(d, cc, targetWarps, lc, false, x)
	})
	if !filled && x.Enabled() {
		sp := x.Span("simulate.cached",
			obs.String("kernel", v.Prog.Name),
			obs.Int("target_warps", targetWarps),
			obs.Int("grid_warps", lc.GridWarps))
		if err != nil {
			sp.SetAttr(obs.String("error", err.Error()))
		} else {
			sp.SetAttr(obs.Uint64("cycles", st.Cycles))
		}
		sp.End()
	}
	return st, err
}

// ProfileCtx simulates the version with the profiler on (sim.Config.Profile:
// PC profile, counter tracks and issue logs). Profiled launches always
// bypass the run cache: their Profile is caller-owned, and the cache must
// keep serving pointer-field-free Stats.
func (v *Version) ProfileCtx(d *device.Device, cc device.CacheConfig, targetWarps int, lc *interp.Launch, x obs.Ctx) (*sim.Stats, error) {
	return v.simulate(d, cc, targetWarps, lc, true, x)
}

// simulate is the uncached simulation (the cache's fill path).
func (v *Version) simulate(d *device.Device, cc device.CacheConfig, targetWarps int, lc *interp.Launch, profile bool, x obs.Ctx) (*sim.Stats, error) {
	wpb := v.Prog.BlockDim / d.WarpSize
	blocks := v.Natural.ActiveBlocks
	if tb := targetWarps / wpb; tb < blocks {
		blocks = tb
	}
	if blocks <= 0 {
		return nil, &ErrInfeasible{targetWarps, "below one block per SM"}
	}
	return sim.Simulate(sim.Config{
		Device:         d,
		Cache:          cc,
		BlocksPerSM:    blocks,
		RegsPerThread:  v.RegsPerThread,
		SharedPerBlock: v.SharedPerBlock,
		Obs:            x,
		Profile:        profile,
	}, &interp.Launch{Prog: v.Prog, GridWarps: lc.GridWarps, FirstWarp: lc.FirstWarp})
}
