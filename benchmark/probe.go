package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/interp"
	"repro/internal/interproc"
	"repro/internal/isa"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/occupancy"
	"repro/internal/opt"
	"repro/internal/regalloc"
	"repro/internal/sa"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/tv"
	"repro/internal/verify"
)

// probe is the layer replay of a traced run. The program under test has
// no spans of its own yet, so the layers are measured from outside: for
// each of the workload's programs the probe calls the exported function of
// every layer in pipeline order, with the inputs the pipeline would hand
// it (the platform is GTX680 with the small cache; the levels are those
// Realizer.Compile realizes), each call under a span. A layer's metric is
// the self time of its spans: per program for the `_us` metrics (median
// over programs), per round for the `_ms` metrics (sum over programs).
type probe struct {
	ins    []input
	scale  float64 // grid scale of the launches the probe simulates
	tr     *tracer
	tmpDir string
	t      *tally

	perProgram map[string][]float64 // layer -> µs per program, this round
	counts     map[string]float64   // exact counts, identical every round
	simNS      map[string]float64   // backend or kernel -> host ns, this round
	simInstr   map[string]float64
	compileMS  float64 // Realizer.Compile itself, for the replay's coverage
}

var probePlatform = platform{device.GTX680(), device.SmallCache}

// in times fn as a span of layer name under parent and books the time to
// the program being replayed.
func (pb *probe) in(name, op string, parent int, fn func()) {
	id := pb.tr.begin(name, op, parent)
	start := time.Now()
	fn()
	us := float64(time.Since(start).Nanoseconds()) / 1e3
	pb.tr.end(id)
	pb.perProgram[name][len(pb.perProgram[name])-1] += us
}

var probeLayers = []string{
	"isa.decode", "isa.validate", "isa.encode", "isa.parse", "sa.analyze",
	"opt.run", "opt.run_tv", "tv.validate_identity", "regalloc.prepare", "regalloc.recolor",
	"interproc.optimize", "verify.check", "verify.differential", "core.ladder_realize",
	"core.encodefat", "core.decodefat", "interp.compile",
	"store.put", "store.get", "serve.request_key", "serve.encode_report",
}

// compileSide are the layers Realizer.Compile runs; their replayed time
// against Compile's own is the replay's coverage.
var compileSide = []string{
	"isa.validate", "sa.analyze", "regalloc.prepare", "regalloc.recolor",
	"interproc.optimize", "verify.check", "verify.differential",
}

// round replays every program once and returns the round's metrics.
func (pb *probe) round() (map[string]float64, error) {
	pb.perProgram = map[string][]float64{}
	pb.counts = map[string]float64{}
	pb.simNS = map[string]float64{}
	pb.simInstr = map[string]float64{}
	pb.compileMS = 0
	st, err := store.Open(pb.tmpDir + "/probe-store")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(st.Dir())

	var host hostClock
	for _, in := range pb.ins {
		for _, l := range probeLayers {
			pb.perProgram[l] = append(pb.perProgram[l], 0)
		}
		core.ResetRealizeCache()
		core.ResetRunCache()
		host.tick()
		if err := pb.program(in, st); err != nil {
			return nil, fmt.Errorf("probe %s: %w", in.name, err)
		}
	}

	// A layer whose metric is named _us reports the median over programs,
	// one named _ms the sum over programs.
	m := map[string]float64{}
	for _, l := range probeLayers {
		if _, perProgram := perLayerUnits[l+"_us"]; perProgram {
			m[l+"_us"] = median(pb.perProgram[l])
		} else {
			m[l+"_ms"] = sum(pb.perProgram[l]) / 1e3
		}
	}
	replayed := 0.0
	for _, l := range compileSide {
		replayed += sum(pb.perProgram[l]) / 1e3
	}
	m["replay.compile_cover_x"] = replayed / pb.compileMS
	for _, k := range []string{"compiled", "interp", "bfs", "gaussian"} {
		m["sim.host_ns_per_instr."+k] = pb.simNS[k] / pb.simInstr[k] // suite kernels, so always simulated
	}
	for k, v := range pb.counts {
		m[k] = v
	}
	host.tick()
	if err := pb.micro(m); err != nil {
		return nil, err
	}
	host.tick()
	// Every time of the round, corrected for the host's slowdown over it.
	f := host.slowdown()
	for name := range m {
		switch perLayerUnits[name] {
		case "us", "ms", "ns":
			m[name] /= f
		}
	}
	return m, nil
}

// versionsOf lists a compile result's distinct versions, original first.
func versionsOf(cr *core.CompileResult) []*core.Version {
	seen := map[*core.Version]bool{}
	var out []*core.Version
	add := func(v *core.Version) {
		if v != nil && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	add(cr.Original)
	for _, c := range cr.Candidates {
		add(c.Version)
	}
	for _, c := range cr.FailSafe {
		add(c.Version)
	}
	return out
}

func (pb *probe) program(in input, st *store.Store) error {
	pl := probePlatform
	op := "probe." + in.name
	root := pb.tr.begin("probe", op, -1)
	defer pb.tr.end(root)

	var p *isa.Program
	var err error
	pb.in("isa.decode", op, root, func() { p, err = isa.Decode(in.bin) })
	if err != nil {
		return err
	}
	pb.in("isa.validate", op, root, func() { err = isa.Validate(p) })
	if err != nil {
		return err
	}
	pb.in("isa.encode", op, root, func() { _ = isa.Encode(p) })
	pb.in("isa.parse", op, root, func() { _, err = isa.Parse(in.text) })
	if err != nil {
		return err
	}
	pb.in("sa.analyze", op, root, func() { pb.counts["sa.diagnostics"] += float64(sa.CountErrors(sa.Analyze(p))) })

	// What the pipeline itself does with the program, untraced inside.
	rz := core.NewRealizer(pl.dev, pl.cache)
	var cr *core.CompileResult
	id := pb.tr.begin("core.compile", op, root)
	start := time.Now()
	cr, err = rz.Compile(p, true)
	pb.compileMS += float64(time.Since(start).Nanoseconds()) / 1e6
	pb.tr.end(id)
	if err != nil {
		return err
	}
	versions := versionsOf(cr)

	// Middle end and allocator, function by function, at the register
	// budget of every distinct realization Compile produced. Callees are
	// re-colored at the entry budget (the pipeline gives them what the
	// caller's frame leaves, which the replay cannot see from outside).
	preps := make([]*regalloc.Prep, len(p.Funcs))
	for fi, f := range p.Funcs {
		pb.in("regalloc.prepare", op, root, func() { preps[fi], err = regalloc.Prepare(f) })
		if err != nil {
			return err
		}
		pb.in("tv.validate_identity", op, root, func() {
			res := tv.Validate(f, f.Clone(), tv.IdentityHint(len(f.Instrs)))
			pb.t.expect(res.Verdict == tv.Accept, "%s.%s: identity rewrite not accepted: %s", in.name, f.Name, res.Reason)
		})
	}
	progs := map[*isa.Program]bool{}
	for _, v := range versions {
		if !progs[v.Prog] && v.Debug != nil {
			budget := v.Debug.RegBudget
			shared := 0
			if room := occupancy.MaxSharedForWarps(pl.dev, pl.cache, p.BlockDim, v.TargetWarps) - p.SharedBytes; room > 0 {
				shared = room / (4 * p.BlockDim)
			}
			for fi, f := range p.Funcs {
				if preps[fi].MaxLive > budget {
					pb.in("opt.run", op, root, func() { _, _, _ = opt.RunTV(f, budget, tv.ModeOff, obs.Ctx{}) })
					pb.in("opt.run_tv", op, root, func() {
						_, os, _ := opt.RunTV(f, budget, tv.ModeStrict, obs.Ctx{})
						pb.counts["opt.maxlive_delta"] += float64(os.MaxLiveBefore - os.MaxLiveAfter)
					})
				}
				var a *regalloc.Alloc
				pb.in("regalloc.recolor", op, root, func() { a, err = preps[fi].ReColor(budget, shared) })
				if err != nil {
					return err
				}
				pb.counts["regalloc.spill_webs"] += float64(len(a.SpillWebs))
				pb.in("interproc.optimize", op, root, func() {
					var ist *interproc.Stats
					if _, ist, err = interproc.Optimize(a, interproc.DefaultOptions()); err == nil {
						pb.counts["interproc.moves"] += float64(ist.Movements)
					}
				})
				if err != nil {
					return err
				}
			}
			pb.in("sa.analyze", op, root, func() { pb.counts["sa.diagnostics"] += float64(sa.CountErrors(sa.Analyze(v.Prog))) })
			pb.in("interp.compile", op, root, func() { _, err = interp.Compile(v.Prog) })
			if err != nil {
				return err
			}
			for _, f := range v.Prog.Funcs {
				for i := range f.Instrs {
					if f.Instrs[i].IsSpill() {
						pb.counts["core.static_spill_instrs"]++
					}
				}
			}
		}
		progs[v.Prog] = true
		// The pipeline verifies every level it hands out, shared binary or not.
		pb.in("verify.check", op, root, func() {
			vs := verify.Check(pl.dev, pl.cache, verify.Realized{Prog: v.Prog, TargetWarps: v.TargetWarps,
				RegsPerThread: v.RegsPerThread, SharedPerBlock: v.SharedPerBlock, LocalSlots: v.LocalSlots})
			pb.t.expect(len(vs) == 0, "%s@%d: verify.Check: %v", in.name, v.TargetWarps, vs)
		})
		pb.in("verify.differential", op, root, func() {
			vs := verify.Differential(p, v.Prog, 0, 0)
			pb.t.expect(len(vs) == 0, "%s@%d: verify.Differential: %v", in.name, v.TargetWarps, vs)
		})
	}

	// The bare compile path: every level through one ladder, no gates.
	bare := core.NewRealizer(pl.dev, pl.cache)
	bare.Verify, bare.Lint = false, core.LintOff
	core.ResetRealizeCache()
	pb.in("core.ladder_realize", op, root, func() {
		lad := bare.NewLadder(p)
		for _, lvl := range occupancy.Levels(pl.dev, p.BlockDim) {
			_, _ = lad.Realize(lvl) // infeasible levels are part of the ladder's work
		}
	})

	var fat []byte
	pb.in("core.encodefat", op, root, func() { fat = core.EncodeFat(cr) })
	pb.in("core.decodefat", op, root, func() { _, err = core.DecodeFat(fat) })
	if err != nil {
		return err
	}
	pb.counts["core.fat_bytes"] += float64(len(fat))

	// Tune at the probe's launch: the chosen version feeds the simulator
	// probes and the report feeds the serve and store probes.
	grid := generatedGrid(p, pb.scale)
	if in.kernel != nil {
		grid = paperGrid(in.kernel, pb.scale)
	}
	lc := core.Launch{GridWarps: grid, Iterations: in.iters}
	var rep *core.TuneReport
	id = pb.tr.begin("core.tune", op, root)
	rep, err = rz.Tune(p, lc)
	pb.tr.end(id)
	if err != nil {
		return err
	}
	pb.counts["core.tune_iterations"] += float64(rep.TuneIterations)

	v := rep.Chosen.Version
	wpb := p.BlockDim / pl.dev.WarpSize
	blocks := min(v.Natural.ActiveBlocks, rep.Chosen.TargetWarps/wpb)
	for _, be := range []sim.Backend{sim.BackendCompiled, sim.BackendInterp} {
		id := pb.tr.begin("sim.simulate."+be.String(), op, root)
		start := time.Now()
		stats, err := sim.Simulate(sim.Config{Device: pl.dev, Cache: pl.cache, BlocksPerSM: blocks,
			RegsPerThread: v.RegsPerThread, SharedPerBlock: v.SharedPerBlock, Backend: be},
			&interp.Launch{Prog: v.Prog, GridWarps: grid})
		ns := float64(time.Since(start).Nanoseconds())
		pb.tr.end(id)
		if err != nil {
			return err
		}
		key := "interp"
		if be == sim.BackendCompiled {
			key = "compiled"
			if in.name == "bfs" || in.name == "gaussian" {
				pb.simNS[in.name], pb.simInstr[in.name] = ns, float64(stats.Instructions)
			}
		}
		pb.simNS[key] += ns
		pb.simInstr[key] += float64(stats.Instructions)
	}

	// Store and report layers at this program's own artifact sizes.
	params := serve.Params{Kernel: p.Name, Device: pl.dev.Name, Cache: pl.cache.String(),
		Backend: sim.DefaultBackend().String(), Grid: grid, Iters: in.iters, Lint: "strict", Verify: true}
	var key string
	var report []byte
	pb.in("serve.request_key", op, root, func() { key = serve.RequestKey("tune", params, p, pl.dev) })
	pb.in("serve.encode_report", op, root, func() {
		report = serve.EncodeReport(serve.BuildReport(params, p, pl.dev, rz.CanTune(p, lc), rep))
	})
	for kind, data := range map[string][]byte{"fat": fat, "tune": report} {
		pb.in("store.put", op, root, func() { err = st.Put(kind, key, data) })
		if err != nil {
			return err
		}
		pb.in("store.get", op, root, func() {
			got, ok, gerr := st.Get(kind, key)
			pb.t.expect(gerr == nil && ok && string(got) == string(data), "%s: store.Get(%s) did not return what was put", in.name, kind)
		})
	}
	// Two artifacts went through the store; report the cost of one.
	for _, l := range []string{"store.put", "store.get"} {
		pb.perProgram[l][len(pb.perProgram[l])-1] /= 2
	}
	return nil
}

// micro measures the layers that do not depend on the program: the
// matching solver, a memo hit, and the daemon's fixed costs per request.
func (pb *probe) micro(m map[string]float64) error {
	// Kuhn-Munkres on a 64x64 cost matrix, the size of a wide frame.
	r := rand.New(rand.NewSource(64))
	w := make([][]float64, 64)
	for i := range w {
		w[i] = make([]float64, 64)
		for j := range w[i] {
			w[i][j] = float64(r.Intn(1000))
		}
	}
	var us []float64
	for i := 0; i < 20; i++ {
		start := time.Now()
		assign.MaxWeight(w)
		us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
	}
	m["assign.maxweight_us"] = median(us)

	c := memo.New[int, int]()
	_, _ = c.Do(1, func() (int, error) { return 1, nil })
	const hits = 200000
	start := time.Now()
	for i := 0; i < hits; i++ {
		_, _ = c.Do(1, func() (int, error) { return 1, nil })
	}
	m["memo.do_hit_ns"] = float64(time.Since(start).Nanoseconds()) / hits

	pool := serve.NewPool(1, 4)
	fl := serve.NewFlight()
	us = us[:0]
	for i := 0; i < 2000; i++ {
		start := time.Now()
		_, err := fl.Do(context.Background(), fmt.Sprint(i), pool, func(context.Context) ([]byte, error) { return nil, nil })
		if err != nil {
			pool.Close()
			return err
		}
		us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
	}
	pool.Close()
	m["serve.flight_pool_overhead_us"] = median(us)

	srv := serve.New(serve.Config{Workers: 1})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	done := make(chan struct{})
	go func() { _ = hs.Serve(ln); close(done) }()
	defer func() { _ = hs.Close(); <-done }()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	us = us[:0]
	for i := 0; i < 300; i++ {
		start := time.Now()
		if _, _, err := fetch(client, "GET", "http://"+ln.Addr().String()+"/healthz", nil, nil); err != nil {
			return err
		}
		us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
	}
	m["serve.http_floor_us"] = median(us)
	return nil
}

// quality measures, at the probe's launch and over the suite kernels, the
// two simulated ratios the end-to-end speedup does not show: the tuner's
// speedup with the middle end on, and how far the tuner's choice is from
// the best level an exhaustive sweep finds (1 = it found the optimum).
func (pb *probe) quality(m map[string]float64) error {
	pl := probePlatform
	var optSpeedups, gaps []float64
	for _, in := range pb.ins {
		if in.kernel == nil {
			continue
		}
		p, err := isa.Decode(in.bin)
		if err != nil {
			return err
		}
		grid := paperGrid(in.kernel, pb.scale)
		lc := core.Launch{GridWarps: grid, Iterations: in.iters}
		rz := core.NewRealizer(pl.dev, pl.cache)
		_, base, err := rz.Baseline(p, grid)
		if err != nil {
			return err
		}
		on := core.NewRealizer(pl.dev, pl.cache)
		on.Opt = true
		rep, err := on.Tune(p, lc)
		if err != nil {
			return err
		}
		launches := len(rep.History)
		if rep.KernelSplit {
			launches = 1
		}
		optSpeedups = append(optSpeedups, float64(base.Cycles)*float64(launches)/float64(rep.TotalCycles))

		off, err := rz.Tune(p, lc)
		if err != nil {
			return err
		}
		levels, err := rz.Sweep(p, grid)
		if err != nil {
			return err
		}
		best := levels[0].Stats.Cycles
		for _, l := range levels {
			best = min(best, l.Stats.Cycles)
		}
		steady, err := off.Chosen.Version.RunAt(pl.dev, pl.cache, off.Chosen.TargetWarps,
			&interp.Launch{Prog: off.Chosen.Version.Prog, GridWarps: grid})
		if err != nil {
			return err
		}
		gaps = append(gaps, float64(steady.Cycles)/float64(best))
	}
	m["core.select_speedup_opt_geomean"] = geomean(optSpeedups)
	m["core.oracle_gap_geomean"] = geomean(gaps)
	return nil
}
