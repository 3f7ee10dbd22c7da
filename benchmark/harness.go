package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/tv"
)

// config is one run: a workload, a seed, how long to measure and whether
// this is the traced run.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	sizes     sizes
	tracePath string // where the traced run writes its Chrome trace; "" = nowhere
}

// sizes are the scales of a run. The full values size a run to the
// regression gate's budget; -quick shrinks them for the smoke test.
type sizes struct {
	Generated   int     `json:"generated_programs"`
	GridScale   float64 `json:"grid_scale"`       // of the paper's grids, batch workloads
	SuiteScale  float64 `json:"suite_grid_scale"` // bench.New(scale)
	ProbeScale  float64 `json:"probe_grid_scale"` // layer replay and the serve quality probe
	SetupReps   int     `json:"setup_repetitions"`
	MinCycles   int     `json:"min_passes"`
	UploadPool  int     `json:"serve_upload_pool"`
	WarmUp      int     `json:"serve_warm_up_requests"`
	MaxRequests int     `json:"serve_max_requests"` // 0 = bounded by time only
}

var fullSizes = sizes{
	Generated: generatedPrograms, GridScale: 0.25, SuiteScale: 0.0625, ProbeScale: 0.0625,
	SetupReps: 5, MinCycles: 2, UploadPool: 768, WarmUp: 100,
}

var quickSizes = sizes{
	Generated: 2, GridScale: 1.0 / 32, SuiteScale: 1.0 / 64, ProbeScale: 1.0 / 64,
	SetupReps: 1, MinCycles: 1, UploadPool: 24, WarmUp: 10, MaxRequests: 40,
}

// sample is one reported metric. Value is what the last line prints;
// the rest describes the samples behind it for the results file and diff.
type sample struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Spread float64 `json:"spread"` // (q3-q1)/median over the run's passes; 0 for exact values
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Exact  bool    `json:"exact,omitempty"` // simulated: repeats bit for bit
}

// exact is a value that repeats bit for bit (a simulated count or ratio).
func exact(v float64, unit string) sample {
	return sample{Value: v, Unit: unit, N: 1, Q1: v, Q3: v, Min: v, Max: v, Exact: true}
}

// timed reports value with the spread of the per-pass estimates behind it.
func timed(value float64, unit string, perPass []float64) sample {
	s := sample{Value: value, Unit: unit, N: len(perPass), Q1: value, Q3: value, Min: value, Max: value}
	if len(perPass) > 0 {
		sp := sorted(perPass)
		s.Q1, _, s.Q3 = quartiles(perPass)
		s.Min, s.Max = sp[0], sp[len(sp)-1]
		s.Spread = spread(perPass)
	}
	return s
}

// programRow is one line of the per-program table of the results file.
type programRow struct {
	Program     string  `json:"program"`
	OpMS        float64 `json:"op_ms"` // median time of the workload's operation on it
	ChosenWarps int     `json:"chosen_warps,omitempty"`
	TunedCycles uint64  `json:"tuned_cycles,omitempty"`
	Speedup     float64 `json:"speedup,omitempty"`
}

// result is everything one run found.
type result struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Traced    bool   `json:"traced"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Passes    int    `json:"passes"`
	// HostSlowdown is the median slowdown of the host over the run's passes
	// (1 = the reference host, quiet); every time in Metrics is already
	// divided by the slowdown of the pass it came from.
	HostSlowdown float64           `json:"host_slowdown"`
	Metrics      map[string]sample `json:"metrics"`
	Failures     []string          `json:"failures,omitempty"`
	Programs     []programRow      `json:"programs,omitempty"`
	// TablesSHA256 is the hash of the suite's rendered tables (suite_cached).
	TablesSHA256 string `json:"tables_sha256,omitempty"`
}

// tally counts operations and output checks against those that failed.
// serve_mixed's clients share one, hence the lock.
type tally struct {
	mu                sync.Mutex
	attempted, failed int
	msgs              []string
}

func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	t.failed++
	if len(t.msgs) < 20 {
		t.msgs = append(t.msgs, fmt.Sprintf(format, args...))
	}
}

// expect counts one check.
func (t *tally) expect(cond bool, format string, args ...any) {
	if cond {
		t.ok()
	} else {
		t.fail(format, args...)
	}
}

// cyclic is a workload made of a fixed list of operations that is run
// over and over (a pass) until the run's time is used: every workload but
// serve_mixed.
type cyclic interface {
	// setUp builds the inputs from the seed. It runs sizes.SetupReps
	// times, each on a fresh value, and is what setup_s times.
	setUp(cfg config) error
	ops() int
	opName(i int) string
	// beginPass and beginOp run outside the timed region (cache resets).
	beginPass()
	beginOp(i int)
	// op is the timed operation. parent is the caller's span, -1 untraced.
	op(i int, tr *tracer, parent int) error
	// afterOp checks, untimed, that the operation's output is the one its
	// first pass produced.
	afterOp(i int) error
	// check verifies the outputs once timing is over and fills in the
	// simulated quality of what the workload produced.
	check(t *tally, perOpMS []float64) outcome
	// probeInputs are the programs the layer replay of the traced run uses.
	probeInputs() []input
}

// outcome is what a workload's output check reports back.
type outcome struct {
	speedup      float64 // geomean speedup of the selected kernels over the nvcc-like baseline
	programs     []programRow
	tablesSHA256 string
}

// counters is a snapshot of every process-wide counter a traced pass
// reports as a delta.
type counters struct {
	sim   sim.Totals
	cache core.CacheSnapshot
	tvC   [3]uint64
}

func snapshot() counters {
	var c counters
	c.sim = sim.SnapshotTotals()
	c.cache = core.SnapshotCacheCounters()
	c.tvC[0], c.tvC[1], c.tvC[2] = tv.Counters()
	return c
}

// add accumulates the movement between two snapshots. Batch operations
// reset the caches (and with them the cache counters) before each
// operation, so deltas are taken per operation and summed.
func (c *counters) add(before, after counters) {
	d := after.sim.Delta(before.sim)
	c.sim.Launches += d.Launches
	c.sim.Cycles += d.Cycles
	c.sim.Instructions += d.Instructions
	c.sim.SpillInstrs += d.SpillInstrs
	c.sim.StallMem += d.StallMem
	c.sim.StallALU += d.StallALU
	c.sim.StallBarrier += d.StallBarrier
	c.sim.StallMSHR += d.StallMSHR
	c.sim.L1Hits += d.L1Hits
	c.sim.L1Misses += d.L1Misses
	c.sim.L2Hits += d.L2Hits
	c.sim.L2Misses += d.L2Misses
	c.sim.DRAMLines += d.DRAMLines
	cd := after.cache.Delta(before.cache)
	c.cache.Realize.Hits += cd.Realize.Hits
	c.cache.Realize.Misses += cd.Realize.Misses
	c.cache.Run.Hits += cd.Run.Hits
	c.cache.Run.Misses += cd.Run.Misses
	c.cache.Ladder.Reuse += cd.Ladder.Reuse
	c.cache.Ladder.Recolor += cd.Ladder.Recolor
	c.cache.Ladder.Pruned += cd.Ladder.Pruned
	for i := range c.tvC {
		c.tvC[i] += after.tvC[i] - before.tvC[i]
	}
}

// pass runs every operation once and returns the time of each in ms,
// corrected for the host's slowdown over the pass (hostidx.go), and that
// slowdown. With a tracer it wraps each operation in a span and, when acc
// is set, sums the counter movement of the operations.
func pass(w cyclic, t *tally, tr *tracer, acc *counters) ([]float64, float64) {
	w.beginPass()
	ms := make([]float64, w.ops())
	var host hostClock
	for i := range ms {
		w.beginOp(i)
		host.tick()
		var before counters
		if acc != nil {
			before = snapshot()
		}
		id := tr.begin("op."+w.opName(i), w.opName(i), -1)
		start := time.Now()
		err := w.op(i, tr, id)
		ms[i] = float64(time.Since(start).Nanoseconds()) / 1e6
		tr.end(id)
		if acc != nil {
			acc.add(before, snapshot())
		}
		if err == nil {
			err = w.afterOp(i)
		}
		t.expect(err == nil, "%s: %v", w.opName(i), err)
	}
	f := host.slowdown()
	for i := range ms {
		ms[i] /= f
	}
	return ms, f
}

// warmUp runs every fourth operation untimed so that the heap, the
// garbage collector's pacing and lazily built tables are in their steady
// state before the first timed pass.
func warmUp(w cyclic, t *tally) {
	w.beginPass()
	for i := 0; i < w.ops(); i += 4 {
		w.beginOp(i)
		if err := w.op(i, nil, -1); err != nil {
			t.fail("warm-up %s: %v", w.opName(i), err)
		}
	}
}

// passes repeats pass until the time is used, at least min times, with a
// collection between passes outside the timed region. It also returns the
// peak resident set at the end of pass number min: the program under test
// keeps pointer-keyed memos that nothing evicts, so its resident set grows
// with every operation, and a peak read after a fixed amount of work does
// not depend on how many passes the host's speed let the run fit in.
func passes(w cyclic, t *tally, seconds float64, min int) (all [][]float64, slow []float64, rssMB float64) {
	spent := 0.0
	for len(all) < min || spent < seconds {
		runtime.GC()
		ms, f := pass(w, t, nil, nil)
		all = append(all, ms)
		slow = append(slow, f)
		spent += sum(ms) / 1e3 * f // the budget is in wall time
		if len(all) == min {
			rssMB = peakRSSMB()
		}
	}
	return all, slow, rssMB
}

// perOpMedians reduces passes to one time per operation: its median over
// the passes. A stall (collector, scheduler) lands on one operation of one
// pass, and the median drops it there instead of shifting a whole pass.
func perOpMedians(all [][]float64) []float64 {
	out := make([]float64, len(all[0]))
	col := make([]float64, len(all))
	for i := range out {
		for p := range all {
			col[p] = all[p][i]
		}
		out[i] = median(col)
	}
	return out
}

// passMetrics turns the timed passes into the three timing metrics.
func passMetrics(all [][]float64, m map[string]sample) []float64 {
	perOp := perOpMedians(all)
	var totals, p50s, p90s []float64
	for _, ms := range all {
		totals = append(totals, sum(ms)/1e3)
		p50s = append(p50s, percentile(ms, 50))
		p90s = append(p90s, percentile(ms, 90))
	}
	m["pass_s"] = timed(sum(perOp)/1e3, "s", totals)
	m["op_p50_ms"] = timed(percentile(perOp, 50), "ms", p50s)
	m["op_p90_ms"] = timed(percentile(perOp, 90), "ms", p90s)
	return perOp
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// timeSetUp runs a workload's set-up at least reps times (and, when reps
// is more than one, until half a second has gone into it, so that a
// set-up of a few milliseconds is not judged on five samples), each on a
// fresh value with the process-wide caches dropped. It returns the last
// value built and every rep's time in seconds, corrected for the host's
// slowdown sampled before and after the rep.
func timeSetUp[W any](reps int, build func() (W, error), discard func(W)) (W, []float64, error) {
	var last W
	var secs []float64
	var host hostClock
	for i := 0; i < reps || reps > 1 && sum(secs) < 0.5 && i < 40; i++ {
		if i > 0 {
			discard(last)
		}
		core.ResetRealizeCache()
		core.ResetRunCache()
		runtime.GC()
		host.samples = append(host.samples, hostIndex(), hostIndex())
		start := time.Now()
		w, err := build()
		if err != nil {
			return last, nil, err
		}
		sec := time.Since(start).Seconds()
		host.samples = append(host.samples, hostIndex(), hostIndex())
		secs = append(secs, sec/host.slowdown())
		last = w
	}
	return last, secs, nil
}
