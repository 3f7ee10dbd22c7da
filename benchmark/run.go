package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
)

// workloadNames lists the workloads in the order the full run takes them.
var workloadNames = []string{"compile_cold", "compile_opt_cold", "tune_cold", "sweep_cold", "suite_cached", "serve_mixed"}

func newCyclic(name string) cyclic {
	switch name {
	case "compile_cold":
		return &batch{kind: "compile"}
	case "compile_opt_cold":
		return &batch{kind: "compile", opt: true}
	case "tune_cold":
		return &batch{kind: "tune"}
	case "sweep_cold":
		return &batch{kind: "sweep"}
	case "suite_cached":
		return &suiteRun{}
	}
	return nil
}

// scratchDir is where a run keeps its files (the daemon's store, the
// probe's store, the Chrome trace): under .bench_build in the working
// directory, which is the root of the checkout.
func scratchDir(cfg config) (string, error) {
	dir := fmt.Sprintf(".bench_build/run-%s-%d-%d", cfg.workload, cfg.seed, os.Getpid())
	return dir, os.MkdirAll(dir, 0o755)
}

// runWorkload is one run of one workload: set up, measure for
// cfg.seconds, check the outputs, and report either the end-to-end
// metrics (untraced) or the per-layer metrics (traced).
func runWorkload(cfg config) (*result, error) {
	if raceEnabled {
		return nil, fmt.Errorf("built with -race: the race detector slows the program several times over, so no timing taken under it means anything")
	}
	dir, err := scratchDir(cfg)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	res := &result{Workload: cfg.workload, Seed: cfg.seed, Traced: cfg.trace, Metrics: map[string]sample{}}
	t := &tally{}
	if cfg.workload == "serve_mixed" {
		err = runServe(cfg, dir, res, t)
	} else if newCyclic(cfg.workload) != nil {
		err = runCyclic(cfg, dir, res, t)
	} else {
		err = fmt.Errorf("unknown workload %q (one of %v)", cfg.workload, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed, res.Failures = t.attempted, t.failed, t.msgs
	res.Correct = t.failed == 0 && t.attempted > 0
	return res, nil
}

func runCyclic(cfg config, dir string, res *result, t *tally) error {
	w, setups, err := timeSetUp(cfg.sizes.SetupReps, func() (cyclic, error) {
		w := newCyclic(cfg.workload)
		return w, w.setUp(cfg)
	}, func(cyclic) {})
	if err != nil {
		return err
	}
	warmUp(w, t)

	if !cfg.trace {
		all, slow, rss := passes(w, t, cfg.seconds, cfg.sizes.MinCycles)
		res.Passes, res.HostSlowdown = len(all), median(slow)
		perOp := passMetrics(all, res.Metrics)
		out := w.check(t, perOp)
		res.Programs, res.TablesSHA256 = out.programs, out.tablesSHA256
		res.Metrics["setup_s"] = timed(median(setups), "s", setups)
		res.Metrics["speedup_geomean"] = exact(out.speedup, "x")
		res.Metrics["peak_rss_mb"] = timed(rss, "MB", nil)
		return nil
	}

	// Traced run: untraced passes for a third of the time give the base
	// the traced pass is compared with; then one pass under spans with the
	// counters read around every operation; then the layer replay.
	all, slow, _ := passes(w, t, cfg.seconds/3, 1)
	untraced := median(passTotals(all))
	tr := newTracer()
	var moved counters
	runtime.GC()
	heap := readHeap()
	tracedMS, f := pass(w, t, tr, &moved)
	res.Passes, res.HostSlowdown = len(all)+1, median(append(slow, f))
	layer := map[string]float64{"trace.overhead_x": sum(tracedMS) / 1e3 / untraced}
	heap.since(layer)
	workloadCounters(layer, moved, sum(tracedMS)/1e3)
	if _, isSuite := w.(*suiteRun); isSuite {
		for i, ms := range tracedMS {
			layer["bench.experiment_ms."+w.opName(i)] = ms
		}
	}
	out := w.check(t, tracedMS)
	res.Programs, res.TablesSHA256 = out.programs, out.tablesSHA256
	if err := replay(cfg, dir, w.probeInputs(), tr, t, layer, cfg.seconds/3); err != nil {
		return err
	}
	return finishTrace(cfg, tr, layer, res)
}

// heapStats is the allocator's running totals; since reports their movement
// as go.alloc_mb and go.gc_cycles, so that what a change does to allocation
// volume is read directly and not inferred from times.
type heapStats struct{ alloc, cycles uint64 }

func readHeap() heapStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return heapStats{m.TotalAlloc, uint64(m.NumGC)}
}

func (h heapStats) since(layer map[string]float64) {
	now := readHeap()
	layer["go.alloc_mb"] = float64(now.alloc-h.alloc) / (1 << 20)
	layer["go.gc_cycles"] = float64(now.cycles - h.cycles)
}

func passTotals(all [][]float64) []float64 {
	var totals []float64
	for _, ms := range all {
		totals = append(totals, sum(ms)/1e3)
	}
	return totals
}

// workloadCounters turns the counter movement of the traced pass into the
// per-layer counts: what the workload itself made each layer do.
func workloadCounters(m map[string]float64, c counters, wallS float64) {
	m["tv.checked"] = float64(c.tvC[0])
	m["tv.rejected"] = float64(c.tvC[1])
	m["tv.abstained"] = float64(c.tvC[2])
	m["core.ladder_reuse"] = float64(c.cache.Ladder.Reuse)
	m["core.ladder_recolor"] = float64(c.cache.Ladder.Recolor)
	m["core.ladder_pruned"] = float64(c.cache.Ladder.Pruned)
	m["memo.realize_hit_ratio"] = ratio(c.cache.Realize.Hits, c.cache.Realize.Hits+c.cache.Realize.Misses)
	m["memo.run_hit_ratio"] = ratio(c.cache.Run.Hits, c.cache.Run.Hits+c.cache.Run.Misses)
	s := c.sim
	m["sim.launches"] = float64(s.Launches)
	m["sim.instructions"] = float64(s.Instructions)
	m["sim.cycles"] = float64(s.Cycles)
	m["sim.spill_instrs"] = float64(s.SpillInstrs)
	m["sim.l1_hit_ratio"] = ratio(s.L1Hits, s.L1Hits+s.L1Misses)
	m["sim.l2_hit_ratio"] = ratio(s.L2Hits, s.L2Hits+s.L2Misses)
	m["sim.dram_lines"] = float64(s.DRAMLines)
	m["sim.stall_mem"] = float64(s.StallMem)
	m["sim.stall_alu"] = float64(s.StallALU)
	m["sim.stall_barrier"] = float64(s.StallBarrier)
	m["sim.stall_mshr"] = float64(s.StallMSHR)
	m["sim.minstr_per_s"] = float64(s.Instructions) / 1e6 / wallS
}

// replay runs the layer probe over the workload's programs: one round at
// least, more while the time lasts, each layer's metric the median of its
// rounds. The two simulated quality ratios are measured once.
func replay(cfg config, dir string, ins []input, tr *tracer, t *tally, layer map[string]float64, seconds float64) error {
	pb := &probe{ins: ins, scale: cfg.sizes.ProbeScale, tr: tr, tmpDir: dir, t: t}
	rounds := map[string][]float64{}
	start := time.Now()
	for n := 0; n == 0 || time.Since(start).Seconds() < seconds; n++ {
		m, err := pb.round()
		if err != nil {
			return err
		}
		for k, v := range m {
			rounds[k] = append(rounds[k], v)
		}
	}
	for k, vs := range rounds {
		layer[k] = median(vs)
	}
	core.ResetRealizeCache()
	core.ResetRunCache()
	return pb.quality(layer)
}

// finishTrace fills the result with every per-layer metric by name (a
// layer the workload does not exercise reads 0) and writes the trace.
func finishTrace(cfg config, tr *tracer, layer map[string]float64, res *result) error {
	layer["host.slowdown_x"] = res.HostSlowdown
	for name, unit := range perLayerUnits {
		res.Metrics[name] = exact(layer[name], unit)
	}
	for name := range layer {
		if _, ok := perLayerUnits[name]; !ok {
			return fmt.Errorf("per-layer metric %q has no unit in perLayerUnits", name)
		}
	}
	if cfg.tracePath != "" {
		return tr.writeChrome(cfg.tracePath)
	}
	return nil
}

func runServe(cfg config, dir string, res *result, t *tally) error {
	d, setups, err := timeSetUp(cfg.sizes.SetupReps, func() (*daemon, error) {
		return startDaemon(cfg, dir)
	}, func(d *daemon) { d.stop() })
	if err != nil {
		return err
	}
	defer d.stop()
	clients := min(runtime.GOMAXPROCS(0), 4)
	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2 // an untraced half to compare the traced half with
	}
	runtime.GC()
	reqs, host, elapsed, rss := d.load(clients, cfg.sizes.WarmUp, seconds, cfg.sizes.MaxRequests, t)
	if len(reqs) == 0 {
		return fmt.Errorf("serve_mixed: no request completed in the measured part of the run")
	}
	res.Passes = 1

	if !cfg.trace {
		out, err := d.check(t, cfg.sizes.ProbeScale)
		if err != nil {
			return err
		}
		res.Programs = out.programs
		res.HostSlowdown = serveMetrics(reqs, host, elapsed, res.Metrics)
		res.Metrics["setup_s"] = timed(median(setups), "s", setups)
		res.Metrics["speedup_geomean"] = exact(out.speedup, "x")
		res.Metrics["peak_rss_mb"] = timed(rss, "MB", nil)
		return nil
	}

	// Traced half: the schedule goes on where the untraced half stopped,
	// under a span per request on both sides of the connection.
	tr := newTracer()
	d.tr.Store(tr)
	before, heap := snapshot(), readHeap()
	traced, tracedHost, tracedElapsed, _ := d.load(clients, 0, seconds, cfg.sizes.MaxRequests, t)
	d.tr.Store(nil)
	if len(traced) == 0 {
		return fmt.Errorf("serve_mixed: no request completed in the traced part of the run")
	}
	var moved counters
	moved.add(before, snapshot())
	f0 := slowdownBetween(host, 0, time.Duration(elapsed*float64(time.Second)))
	f := slowdownBetween(tracedHost, 0, time.Duration(tracedElapsed*float64(time.Second)))
	res.HostSlowdown = f
	layer := map[string]float64{
		"trace.overhead_x": (tracedElapsed / float64(len(traced)) / f) / (elapsed / float64(len(reqs)) / f0),
	}
	heap.since(layer)
	workloadCounters(layer, moved, tracedElapsed/f)
	classLatencies(traced, f, layer)
	if err := d.daemonCounters(layer); err != nil {
		return err
	}
	out, err := d.check(t, cfg.sizes.ProbeScale)
	if err != nil {
		return err
	}
	res.Programs = out.programs
	ins, err := programs(cfg.seed, cfg.sizes.Generated, cfg.sizes.GridScale)
	if err != nil {
		return err
	}
	if err := replay(cfg, dir, ins, tr, t, layer, 0); err != nil {
		return err
	}
	return finishTrace(cfg, tr, layer, res)
}
