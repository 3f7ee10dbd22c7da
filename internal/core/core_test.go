package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/interp"
	"repro/internal/isa"
	"repro/internal/occupancy"
)

// highPressure builds a kernel needing ~40+ registers (upward direction).
func highPressure(t *testing.T) *isa.Program {
	t.Helper()
	var b strings.Builder
	b.WriteString(".kernel hp\n.blockdim 256\n.func main\n  RDSP v0, WARPID\n  MOVI v1, 12\n  SHL v2, v0, v1\n  MOVI v3, 0\n")
	const accs = 40
	for k := 0; k < accs; k++ {
		fmt.Fprintf(&b, "  MOVI v%d, %d\n", 10+k, k*17+1)
	}
	b.WriteString("loop:\n")
	for k := 0; k < accs; k++ {
		fmt.Fprintf(&b, "  IADD v%d, v%d, v%d\n", 10+k, 10+k, 10+(k+1)%accs)
	}
	b.WriteString(`  IADD v4, v2, v3
  LDG v5, [v4]
  XOR v10, v10, v5
  MOVI v6, 128
  IADD v3, v3, v6
  MOVI v7, 2048
  ISET.LT v8, v3, v7
  CBR v8, loop
`)
	for k := 1; k < accs; k++ {
		fmt.Fprintf(&b, "  XOR v10, v10, v%d\n", 10+k)
	}
	b.WriteString("  STG [v2], v10\n  EXIT\n")
	p, err := isa.Parse(b.String())
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

// lowPressureSrc uses few registers (downward direction).
const lowPressureSrc = `
.kernel lp
.blockdim 256
.func main
  RDSP v0, WARPID
  MOVI v1, 12
  SHL v2, v0, v1
  MOVI v3, 0
  MOVI v4, 0
loop:
  IADD v5, v2, v3
  LDG v6, [v5]
  XOR v4, v4, v6
  MOVI v7, 128
  IADD v3, v3, v7
  MOVI v8, 2048
  ISET.LT v9, v3, v8
  CBR v9, loop
  STG [v2], v4
  EXIT
`

func TestMaxLiveDirections(t *testing.T) {
	d := device.GTX680()
	hp := highPressure(t)
	mlHigh, err := MaxLive(hp)
	if err != nil {
		t.Fatalf("MaxLive: %v", err)
	}
	if mlHigh < DirectionThreshold(d) {
		t.Errorf("high-pressure max-live = %d, want >= %d", mlHigh, DirectionThreshold(d))
	}
	lp := isa.MustParse(lowPressureSrc)
	mlLow, err := MaxLive(lp)
	if err != nil {
		t.Fatalf("MaxLive: %v", err)
	}
	if mlLow >= DirectionThreshold(d) {
		t.Errorf("low-pressure max-live = %d, want < %d", mlLow, DirectionThreshold(d))
	}
}

func TestDirectionThresholdMatchesPaper(t *testing.T) {
	// Paper Section 3.3: threshold 32 on Kepler.
	if got := DirectionThreshold(device.GTX680()); got != 32 {
		t.Errorf("GTX680 threshold = %d, want 32", got)
	}
	if got := DirectionThreshold(device.TeslaC2075()); got != 21 {
		t.Errorf("C2075 threshold = %d, want 21", got)
	}
}

func TestRealizePreservesSemantics(t *testing.T) {
	hp := highPressure(t)
	want, err := interp.Run(&interp.Launch{Prog: hp, GridWarps: 16}, 0)
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	for _, d := range device.Both() {
		r := NewRealizer(d, device.SmallCache)
		for _, lvl := range []int{8, 24, d.MaxWarpsPerSM} {
			v, err := r.Realize(hp, lvl)
			if err != nil {
				t.Fatalf("%s lvl %d: %v", d.Name, lvl, err)
			}
			got, err := interp.Run(&interp.Launch{Prog: v.Prog, GridWarps: 16}, 0)
			if err != nil {
				t.Fatalf("%s lvl %d run: %v", d.Name, lvl, err)
			}
			if got.Checksum != want.Checksum {
				t.Errorf("%s lvl %d: checksum %x, want %x", d.Name, lvl, got.Checksum, want.Checksum)
			}
			if v.Natural.ActiveWarps < lvl {
				t.Errorf("%s lvl %d: achieved only %d warps", d.Name, lvl, v.Natural.ActiveWarps)
			}
		}
	}
}

func TestRealizeResourceAccounting(t *testing.T) {
	d := device.GTX680()
	r := NewRealizer(d, device.SmallCache)
	hp := highPressure(t)
	low, err := r.Realize(hp, 8)
	if err != nil {
		t.Fatalf("Realize 8: %v", err)
	}
	high, err := r.Realize(hp, 64)
	if err != nil {
		t.Fatalf("Realize 64: %v", err)
	}
	if low.RegsPerThread <= high.RegsPerThread {
		t.Errorf("regs low-occ %d should exceed high-occ %d", low.RegsPerThread, high.RegsPerThread)
	}
	if high.SharedPerBlock == 0 && high.LocalSlots == 0 {
		t.Error("max occupancy realized with no spills from a 40-acc kernel")
	}
	if low.LocalSlots != 0 {
		t.Errorf("low occupancy spilled to local (%d slots)", low.LocalSlots)
	}
}

func TestCompileIncreasingDirection(t *testing.T) {
	d := device.GTX680()
	r := NewRealizer(d, device.SmallCache)
	cr, err := r.Compile(highPressure(t), true)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if cr.Direction != Increasing {
		t.Fatalf("direction = %v, want increasing", cr.Direction)
	}
	if len(cr.Candidates) == 0 {
		t.Fatal("no candidates")
	}
	if len(cr.Candidates) > maxCandidates {
		t.Errorf("candidates = %d, exceeds paper cap %d", len(cr.Candidates), maxCandidates)
	}
	prev := cr.Original.Natural.ActiveWarps
	for _, c := range cr.Candidates {
		if c.TargetWarps <= prev {
			t.Errorf("candidate ladder not increasing: %d after %d", c.TargetWarps, prev)
		}
		prev = c.TargetWarps
	}
}

func TestCompileDecreasingDirection(t *testing.T) {
	d := device.GTX680()
	r := NewRealizer(d, device.SmallCache)
	cr, err := r.Compile(isa.MustParse(lowPressureSrc), true)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if cr.Direction != Decreasing {
		t.Fatalf("direction = %v, want decreasing", cr.Direction)
	}
	// Decreasing candidates reuse the original binary (padding realizes
	// the lower levels), in descending occupancy order.
	prev := cr.Original.Natural.ActiveWarps
	for _, c := range cr.Candidates {
		if c.Version != cr.Original {
			t.Error("decreasing candidate recompiled unnecessarily")
		}
		if c.TargetWarps >= prev {
			t.Errorf("candidate ladder not decreasing: %d after %d", c.TargetWarps, prev)
		}
		prev = c.TargetWarps
	}
	// A kernel already at hardware-maximum occupancy has no upward
	// fail-safe; otherwise one must exist.
	if cr.Original.Natural.ActiveWarps < d.MaxWarpsPerSM && len(cr.FailSafe) == 0 {
		t.Error("no fail-safe upward version")
	}
}

func TestTunerIncreasingConvergence(t *testing.T) {
	// Synthetic performance curve with a single minimum at candidate 1.
	orig := &Version{Natural: occResult(16)}
	cands := []*Candidate{
		{Version: &Version{}, TargetWarps: 24},
		{Version: &Version{}, TargetWarps: 32},
		{Version: &Version{}, TargetWarps: 40},
	}
	cr := &CompileResult{Direction: Increasing, Original: orig, Candidates: cands}
	tuner := NewTuner(cr)
	times := map[int]float64{16: 100, 24: 80, 32: 70, 40: 90}
	var runs int
	for tuner.Finalized() == nil && runs < 10 {
		c := tuner.Next()
		if tuner.Finalized() != nil {
			break
		}
		tuner.Feedback(c, times[c.TargetWarps])
		runs++
	}
	got := tuner.Next()
	if got.TargetWarps != 32 {
		t.Errorf("converged to %d warps, want 32", got.TargetWarps)
	}
	if runs > 5 {
		t.Errorf("took %d runs to converge", runs)
	}
}

func TestTunerDecreasingTolerance(t *testing.T) {
	// Flat performance until 16 warps, then a cliff: the tuner should
	// settle on the lowest flat level (resource saving, paper Figure 10).
	orig := &Version{Natural: occResult(48)}
	cands := []*Candidate{
		{Version: orig, TargetWarps: 40},
		{Version: orig, TargetWarps: 32},
		{Version: orig, TargetWarps: 24},
		{Version: orig, TargetWarps: 16},
	}
	cr := &CompileResult{Direction: Decreasing, Original: orig, Candidates: cands}
	tuner := NewTuner(cr)
	times := map[int]float64{48: 100, 40: 100.5, 32: 101, 24: 101.5, 16: 140}
	for i := 0; tuner.Finalized() == nil && i < 10; i++ {
		c := tuner.Next()
		if tuner.Finalized() != nil {
			break
		}
		tuner.Feedback(c, times[c.TargetWarps])
	}
	got := tuner.Next()
	if got.TargetWarps != 24 {
		t.Errorf("converged to %d warps, want 24 (last within tolerance)", got.TargetWarps)
	}
}

func TestTunerExhaustsLadder(t *testing.T) {
	orig := &Version{Natural: occResult(16)}
	cands := []*Candidate{
		{Version: &Version{}, TargetWarps: 32},
		{Version: &Version{}, TargetWarps: 64},
	}
	cr := &CompileResult{Direction: Increasing, Original: orig, Candidates: cands}
	tuner := NewTuner(cr)
	times := map[int]float64{16: 100, 32: 80, 64: 60}
	for i := 0; tuner.Finalized() == nil && i < 10; i++ {
		c := tuner.Next()
		if tuner.Finalized() != nil {
			break
		}
		tuner.Feedback(c, times[c.TargetWarps])
	}
	if got := tuner.Next(); got.TargetWarps != 64 {
		t.Errorf("converged to %d, want 64 (end of ladder)", got.TargetWarps)
	}
}

func occResult(warps int) (r occupancy.Result) {
	r.ActiveWarps = warps
	r.ActiveBlocks = warps / 8
	return r
}

func TestPlanSplit(t *testing.T) {
	plan, err := PlanSplit(1024, 4, 128)
	if err != nil {
		t.Fatalf("PlanSplit: %v", err)
	}
	if len(plan.Pieces) != 4 {
		t.Fatalf("pieces = %d, want 4", len(plan.Pieces))
	}
	total := 0
	next := 0
	for _, p := range plan.Pieces {
		if p.FirstWarp != next {
			t.Errorf("piece starts at %d, want %d", p.FirstWarp, next)
		}
		if p.Warps < 128 {
			t.Errorf("piece of %d warps below minimum", p.Warps)
		}
		next += p.Warps
		total += p.Warps
	}
	if total != 1024 {
		t.Errorf("pieces cover %d warps, want 1024", total)
	}
	if _, err := PlanSplit(100, 4, 128); err == nil {
		t.Error("tiny grid split accepted")
	}
}

func TestTuneEndToEnd(t *testing.T) {
	d := device.GTX680()
	r := NewRealizer(d, device.SmallCache)
	hp := highPressure(t)
	rep, err := r.Tune(hp, Launch{GridWarps: 256, Iterations: 8})
	if err != nil {
		t.Fatalf("Tune: %v", err)
	}
	if rep.Chosen == nil {
		t.Fatal("no kernel chosen")
	}
	if len(rep.History) != 8 {
		t.Errorf("history = %d iterations, want 8", len(rep.History))
	}
	// Semantics must match the unallocated program.
	want, err := interp.Run(&interp.Launch{Prog: hp, GridWarps: 256}, 0)
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	if rep.Checksum != want.Checksum {
		t.Errorf("checksum %x, want %x", rep.Checksum, want.Checksum)
	}
	// The tuner should converge in a few iterations (paper: ~3).
	if rep.TuneIterations > 6 {
		t.Errorf("tuning took %d iterations", rep.TuneIterations)
	}
}

func TestTuneKernelSplitting(t *testing.T) {
	d := device.GTX680()
	r := NewRealizer(d, device.SmallCache)
	hp := highPressure(t)
	rep, err := r.Tune(hp, Launch{GridWarps: 1024, Iterations: 1})
	if err != nil {
		t.Fatalf("Tune: %v", err)
	}
	if !rep.KernelSplit {
		t.Fatal("expected kernel splitting for single-iteration launch")
	}
	want, err := interp.Run(&interp.Launch{Prog: hp, GridWarps: 1024}, 0)
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	if rep.Checksum != want.Checksum {
		t.Errorf("split checksum %x, want %x (grid not covered exactly once?)", rep.Checksum, want.Checksum)
	}
}

func TestTuneStaticSelection(t *testing.T) {
	d := device.GTX680()
	r := NewRealizer(d, device.SmallCache)
	hp := highPressure(t)
	// Grid too small to split: static selection must be used.
	rep, err := r.Tune(hp, Launch{GridWarps: 64, Iterations: 1})
	if err != nil {
		t.Fatalf("Tune: %v", err)
	}
	if rep.KernelSplit {
		t.Error("tiny grid was split")
	}
	if rep.Compile.StaticChoice == nil || rep.Chosen != rep.Compile.StaticChoice {
		t.Error("static selection not used")
	}
	if len(rep.History) != 1 {
		t.Errorf("history = %d, want single run", len(rep.History))
	}
}

// TestStaticSelectRule pins the binding branch of the latency-hiding rule,
// which no suite kernel reaches (their need is 1-2 warps): a kernel whose
// instructions are mostly global loads needs DRAMLatency / ALULatency =
// 280/16 = 17 warps on the C2075.
func TestStaticSelectRule(t *testing.T) {
	r := NewRealizer(device.TeslaC2075(), device.SmallCache)
	p := isa.MustParse(`
.kernel dense
.blockdim 256
.func main
  RDSP v0, WARPID
  LDG v1, [v0]
  LDG v2, [v0+4]
  LDG v3, [v0+8]
  LDG v4, [v0+12]
  STG [v0], v4
  EXIT
`)
	if need := r.latencyHidingWarps(p); need != 17 {
		t.Fatalf("latencyHidingWarps = %d, want 17", need)
	}
	result := func(dir Direction, orig int, cands ...int) *CompileResult {
		res := &CompileResult{Direction: dir, Original: &Version{Natural: occupancy.Result{ActiveWarps: orig}}}
		for _, w := range cands {
			res.Candidates = append(res.Candidates, &Candidate{Version: &Version{}, TargetWarps: w})
		}
		return res
	}
	for _, tc := range []struct {
		name string
		res  *CompileResult
		want int
	}{
		{"lowest covering level", result(Increasing, 16, 24, 32, 48), 24},
		{"level equal to the need", result(Increasing, 16, 17, 24), 17},
		{"none covers: highest", result(Increasing, 8, 12, 16), 16},
		{"decreasing keeps the original", result(Decreasing, 48, 40, 32, 24), 48},
	} {
		got := r.staticSelect(p, tc.res)
		if got.TargetWarps != tc.want {
			t.Errorf("%s: chose %d warps, want %d", tc.name, got.TargetWarps, tc.want)
		}
		if tc.res.Direction == Decreasing && got.Version != tc.res.Original {
			t.Errorf("%s: chose a version other than the original", tc.name)
		}
	}
}

func TestSweepShapes(t *testing.T) {
	d := device.GTX680()
	r := NewRealizer(d, device.SmallCache)
	res, err := r.Sweep(highPressure(t), 128)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if len(res) < 4 {
		t.Fatalf("sweep returned %d levels", len(res))
	}
	// All levels must compute the same result.
	for _, lr := range res[1:] {
		if lr.Stats.Checksum != res[0].Stats.Checksum {
			t.Errorf("level %d checksum differs", lr.TargetWarps)
		}
	}
}

// TestSweepUnrealizable: when no level can be realized the sweep fails with
// the lowest level's *ErrInfeasible, not an untyped error, so callers (the
// daemon's 422) can tell a kernel that cannot fit from a pipeline fault.
func TestSweepUnrealizable(t *testing.T) {
	p := isa.MustParse(`
.kernel big
.shared 60000
.blockdim 256
.func main
  RDSP v0, WARPID
  STG [v0], v0
  EXIT
`)
	d := device.GTX680()
	_, err := NewRealizer(d, device.SmallCache).Sweep(p, 64)
	var inf *ErrInfeasible
	if !errors.As(err, &inf) {
		t.Fatalf("Sweep error = %v, want an *ErrInfeasible", err)
	}
	if want := occupancy.Levels(d, p.BlockDim)[0]; inf.TargetWarps != want || !strings.Contains(inf.Reason, "shared memory") {
		t.Errorf("Sweep error = %v, want level %d's shared-memory verdict", err, want)
	}
}

// TestBlockLargerThanSM: a block with one warp more than an SM holds has
// no occupancy level at all. Every entry point answers one *ErrInfeasible
// naming the block — the daemon's 422 — instead of indexing an empty
// level list.
func TestBlockLargerThanSM(t *testing.T) {
	for _, d := range device.Both() {
		blockDim := (d.MaxWarpsPerSM + 1) * d.WarpSize
		p := isa.MustParse(fmt.Sprintf(`
.kernel huge
.blockdim %d
.func main
  RDSP v0, WARPID
  STG [v0], v0
  EXIT
`, blockDim))
		r := NewRealizer(d, device.SmallCache)
		_, compileErr := r.Compile(p, true)
		_, tuneErr := r.Tune(p, Launch{GridWarps: 4096, Iterations: 4})
		_, sweepErr := r.Sweep(p, 4096)
		_, _, baseErr := r.Baseline(p, 4096)
		for name, err := range map[string]error{"Compile": compileErr, "Tune": tuneErr, "Sweep": sweepErr, "Baseline": baseErr} {
			var inf *ErrInfeasible
			if !errors.As(err, &inf) {
				t.Errorf("%s: %s of a %d-thread block: error = %v, want an *ErrInfeasible", d.Name, name, blockDim, err)
				continue
			}
			if inf.TargetWarps != d.MaxWarpsPerSM+1 || !strings.Contains(inf.Reason, "block") {
				t.Errorf("%s: %s: %v, want the block's %d warps named", d.Name, name, err, d.MaxWarpsPerSM+1)
			}
		}
	}
}

// TestCanTuneConstantSpace: whether a launch can be tuned is decided
// without materialising its iterations, so a request claiming
// math.MaxInt32 of them costs no allocation.
func TestCanTuneConstantSpace(t *testing.T) {
	r := NewRealizer(device.GTX680(), device.SmallCache)
	p := isa.MustParse(lowPressureSrc)
	lc := Launch{GridWarps: 1024, Iterations: math.MaxInt32}
	var can bool
	if allocs := testing.AllocsPerRun(10, func() { can = r.CanTune(p, lc) }); allocs != 0 {
		t.Errorf("CanTune with %d iterations allocated %v times per call, want 0", lc.Iterations, allocs)
	}
	if !can {
		t.Error("a launch of many iterations is not tunable")
	}
}

// TestSweepCtxCancelled is the "cancel mid-sweep" gate: a sweep whose
// context is already done realizes nothing and leaves no goroutine behind;
// one cancelled while levels are in flight returns context.Canceled or the
// complete table, never a partial one.
func TestSweepCtxCancelled(t *testing.T) {
	// With the memos on, every sweep after the first would be a lookup that
	// finishes before any cancellation can land.
	realizeOn := RealizeCacheEnabled()
	SetRealizeCacheEnabled(false)
	defer SetRealizeCacheEnabled(realizeOn)
	SetRunCacheEnabled(false)
	defer SetRunCacheEnabled(true)

	p := highPressure(t)
	r := NewRealizer(device.GTX680(), device.SmallCache)
	full, err := r.Sweep(p, 128)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}

	goroutines := runtime.NumGoroutine()
	before := LadderStats()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := r.SweepCtx(ctx, p, 128)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("SweepCtx under a cancelled context = %d levels, %v; want none and context.Canceled", len(res), err)
	}
	if after := LadderStats(); after != before {
		t.Errorf("a cancelled sweep realized levels: ladder counters %+v -> %+v", before, after)
	}
	// ForEachCtx returns only after its workers have, so the count is
	// already back; a sweep that parked one would sit above it for good.
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines after a cancelled sweep, %d before", n, goroutines)
	}

	canceled := 0
	for round := 0; round < 8; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		start := LadderStats().Recolor
		stop := make(chan struct{})
		watcher := make(chan struct{})
		go func() {
			// Cancel as soon as the first coloring shows the sweep is under
			// way: some levels are running, the rest not yet dispatched.
			defer close(watcher)
			for LadderStats().Recolor == start {
				select {
				case <-stop:
					return
				default:
					runtime.Gosched()
				}
			}
			cancel()
		}()
		res, err := r.SweepCtx(ctx, p, 128)
		close(stop)
		<-watcher
		cancel()
		switch {
		case errors.Is(err, context.Canceled):
			canceled++
			if res != nil {
				t.Fatalf("round %d: cancelled sweep returned %d levels", round, len(res))
			}
		case err != nil:
			t.Fatalf("round %d: %v", round, err)
		default:
			if len(res) != len(full) {
				t.Fatalf("round %d: partial table: %d of %d levels", round, len(res), len(full))
			}
			for i := range res {
				if res[i].TargetWarps != full[i].TargetWarps || *res[i].Stats != *full[i].Stats {
					t.Errorf("round %d: level %d differs from the uncancelled sweep", round, res[i].TargetWarps)
				}
			}
		}
	}
	t.Logf("%d of 8 in-flight sweeps were cancelled, the rest completed", canceled)
}

func TestBaselineRuns(t *testing.T) {
	d := device.TeslaC2075()
	r := NewRealizer(d, device.SmallCache)
	v, st, err := r.Baseline(isa.MustParse(lowPressureSrc), 128)
	if err != nil {
		t.Fatalf("Baseline: %v", err)
	}
	if v.LocalSlots != 0 || v.SharedPerBlock != 0 {
		t.Errorf("baseline of a low-pressure kernel spilled: %+v", v)
	}
	if st.Cycles == 0 {
		t.Error("no cycles simulated")
	}
}

func TestThinLadder(t *testing.T) {
	mk := func(warps ...int) []*Candidate {
		out := make([]*Candidate, len(warps))
		for i, w := range warps {
			out[i] = &Candidate{TargetWarps: w}
		}
		return out
	}
	// Cap keeps the first (conservative) and last (maximum) levels.
	got := thin(mk(8, 16, 24, 32, 40, 48, 56, 64), 4)
	if len(got) != 4 {
		t.Fatalf("thin kept %d, want 4", len(got))
	}
	if got[0].TargetWarps != 8 || got[3].TargetWarps != 64 {
		t.Errorf("endpoints lost: %d..%d", got[0].TargetWarps, got[3].TargetWarps)
	}
	for i := 1; i < len(got); i++ {
		if got[i].TargetWarps <= got[i-1].TargetWarps {
			t.Errorf("not strictly increasing: %d after %d", got[i].TargetWarps, got[i-1].TargetWarps)
		}
	}
	// Short ladders pass through untouched.
	if got := thin(mk(8, 16), 4); len(got) != 2 {
		t.Errorf("short ladder thinned to %d", len(got))
	}
	if got := thin(nil, 4); got != nil {
		t.Errorf("nil ladder produced %v", got)
	}
}

func TestDirectionString(t *testing.T) {
	if Increasing.String() != "increasing" || Decreasing.String() != "decreasing" {
		t.Error("direction names wrong")
	}
}
