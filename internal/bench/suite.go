package bench

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/interp"
	"repro/internal/interproc"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/occupancy"
	"repro/internal/par"
	"repro/internal/sim"
)

// Suite runs the paper's experiments. Scale < 1 shrinks the evaluation
// grids proportionally (for quick runs and tests); 1.0 is the full
// configuration used for the recorded results.
type Suite struct {
	Scale float64
	// Progress, when non-nil, receives one line per completed step.
	Progress io.Writer
	// Parallel bounds the experiment worker pool: how many independent
	// rows (kernel × device × ablation) run concurrently. 0 means
	// GOMAXPROCS, 1 is fully serial. Results are index-slotted, so tables
	// are byte-identical at every setting.
	Parallel int
	// Obs, when non-nil, wraps every experiment in a span and records
	// per-experiment wall time into the metrics registry. Nil disables it.
	Obs *obs.Collector
	// Verify runs the allocation verifier and differential oracle on every
	// realized version (see internal/verify). On by default; orion-bench
	// exposes -verify=false to opt out.
	Verify bool
	// Lint gates compilation on the static analyzer (internal/sa): strict
	// (the default) rejects kernels with error-severity findings, off
	// skips analysis. orion-bench exposes -lint.
	Lint core.LintMode
	// Opt runs the pressure-reducing middle end (the pressure-aware
	// scheduler, every kept schedule checked by internal/tv) ahead of
	// the allocator in every realization the suite performs. Off by default
	// so recorded tables match the paper's unoptimized compiler; orion-bench
	// exposes -opt.
	Opt bool

	mu sync.Mutex // serializes Progress writes from workers
}

// New returns a suite at the given grid scale.
func New(scale float64) *Suite {
	if scale <= 0 {
		scale = 1
	}
	return &Suite{Scale: scale, Verify: true, Lint: core.LintStrict}
}

func (s *Suite) logf(format string, args ...interface{}) {
	if s.Progress != nil {
		s.mu.Lock()
		fmt.Fprintf(s.Progress, format+"\n", args...)
		s.mu.Unlock()
	}
}

func (s *Suite) workers() int {
	if s.Parallel > 0 {
		return s.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// forEachRow fans n independent row jobs out over the suite's worker pool
// and returns the lowest-indexed error, so failures are as deterministic
// as results. Jobs must write their output into index-addressed slots.
func (s *Suite) forEachRow(n int, fn func(i int) error) error {
	errs := make([]error, n)
	par.ForEach(s.workers(), n, func(i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// grid returns the scaled grid size for a kernel, kept block-aligned.
func (s *Suite) grid(k *kernels.Kernel) int {
	wpb := k.Prog.BlockDim / 32
	g := int(float64(k.GridWarps) * s.Scale)
	if g < 4*wpb {
		g = 4 * wpb
	}
	return g / wpb * wpb
}

// Experiment names one runnable experiment.
type Experiment struct {
	ID   string
	Name string
	Run  func() (*Table, error)
}

// Experiments lists every reproducible table and figure in paper order.
func (s *Suite) Experiments() []Experiment {
	list := []Experiment{
		{"fig1", "imageDenoising runtime vs occupancy (GTX680)", s.Fig1},
		{"fig2", "matrixMul runtime vs occupancy (C2075)", s.Fig2},
		{"fig5", "inter-procedural allocation ablations", s.Fig5},
		{"fig10", "srad runtime vs occupancy (C2075)", s.Fig10},
		{"fig11", "speedup over nvcc, upward benchmarks", s.Fig11},
		{"fig12", "downward tuning: registers and runtime", s.Fig12},
		{"fig13", "energy of selected kernels (C2075)", s.Fig13},
		{"fig14", "occupancy curves: gaussian, streamcluster (C2075)", s.Fig14},
		{"fig15", "occupancy curves: backprop, bfs (GTX680)", s.Fig15},
		{"table2", "benchmark characteristics", s.Table2},
		{"table3", "small vs large cache at selected occupancy", s.Table3},
		{"model", "analytical model vs simulator (extension)", s.Model},
	}
	for i := range list {
		list[i].Run = s.instrument(list[i].ID, list[i].Run)
	}
	return list
}

// instrument wraps one experiment so its run is recorded as an
// "experiment" span with a wall-time histogram sample. With no collector
// the original function is returned untouched.
func (s *Suite) instrument(id string, fn func() (*Table, error)) func() (*Table, error) {
	if s.Obs == nil {
		return fn
	}
	return func() (*Table, error) {
		sp := s.Obs.StartSpan("experiment", obs.String("id", id))
		start := time.Now()
		t, err := fn()
		wallMS := float64(time.Since(start).Nanoseconds()) / 1e6
		s.Obs.Metrics().Histogram("bench.experiment_wall_ms").Observe(wallMS)
		if err != nil {
			sp.SetAttr(obs.String("error", err.Error()))
		} else {
			sp.SetAttr(obs.Int("rows", len(t.Rows)))
		}
		sp.End()
		return t, err
	}
}

// realizer builds an experiment's compiler with the suite's collector
// attached, so experiment traces carry the nested compile/tune/simulate
// spans and metrics (a nil collector leaves the compiler untraced).
func (s *Suite) realizer(d *device.Device, cc device.CacheConfig) *core.Realizer {
	r := core.NewRealizer(d, cc)
	r.Obs = s.Obs
	r.Verify = s.Verify
	r.Lint = s.Lint
	r.Opt = s.Opt
	return r
}

// ByID returns the experiment with the given ID.
func (s *Suite) ByID(id string) (Experiment, error) {
	for _, e := range s.Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", id)
}

// sweepTable renders an occupancy sweep for one kernel/device, normalizing
// runtime to the reference level ("best" or "max").
func (s *Suite) sweepTable(id, title string, k *kernels.Kernel, d *device.Device, normalizeTo string) (*Table, error) {
	r := s.realizer(d, device.SmallCache)
	res, err := r.Sweep(k.Prog, s.grid(k))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", id, err)
	}
	ref := float64(0)
	switch normalizeTo {
	case "max":
		ref = float64(res[len(res)-1].Stats.Cycles)
	default: // best
		best := res[0].Stats.Cycles
		for _, lr := range res {
			if lr.Stats.Cycles < best {
				best = lr.Stats.Cycles
			}
		}
		ref = float64(best)
	}
	t := &Table{
		ID:     id,
		Title:  title,
		Header: []string{"occupancy", "warps/SM", "regs", "normalized runtime", "cycles"},
	}
	for _, lr := range res {
		t.AddRow(
			f3(lr.Occupancy(d.MaxWarpsPerSM)),
			d2(lr.TargetWarps),
			d2(lr.Version.RegsPerThread),
			f3(float64(lr.Stats.Cycles)/ref),
			d2(int(lr.Stats.Cycles)),
		)
	}
	t.AddNote("normalized to the %s-occupancy runtime; grid %d warps", normalizeTo, s.grid(k))
	return t, nil
}

func d2(x int) string { return fmt.Sprintf("%d", x) }

// Fig1 reproduces Figure 1: imageDenoising on GTX680, runtime across
// occupancy 0.125..1.0 normalized to the best level (~3x spread, best in
// the middle).
func (s *Suite) Fig1() (*Table, error) {
	k, err := kernels.ByName("imageDenoising")
	if err != nil {
		return nil, err
	}
	return s.sweepTable("fig1", "imageDenoising runtime vs occupancy, GTX680 (paper Fig. 1)",
		k, device.GTX680(), "best")
}

// Fig2 reproduces Figure 2: matrixMul runtime vs occupancy with the
// plateau above half occupancy.
func (s *Suite) Fig2() (*Table, error) {
	k, err := kernels.ByName("matrixMul")
	if err != nil {
		return nil, err
	}
	return s.sweepTable("fig2", "matrixMul runtime vs occupancy, C2075 (paper Fig. 2)",
		k, device.TeslaC2075(), "best")
}

// Fig10 reproduces Figure 10: srad on C2075, normalized to the
// maximum-occupancy runtime (flat from half occupancy up).
func (s *Suite) Fig10() (*Table, error) {
	k, err := kernels.ByName("srad")
	if err != nil {
		return nil, err
	}
	return s.sweepTable("fig10", "srad runtime vs occupancy, C2075 (paper Fig. 10)",
		k, device.TeslaC2075(), "max")
}

// Fig14 reproduces Figure 14: gaussian (insensitive) and streamcluster
// (skewed bell) on C2075.
func (s *Suite) Fig14() (*Table, error) {
	return s.pairSweep("fig14", "gaussian and streamcluster vs occupancy, C2075 (paper Fig. 14)",
		device.TeslaC2075(), "gaussian", "streamcluster")
}

// Fig15 reproduces Figure 15: backprop (bell) and bfs (best at maximum)
// on GTX680.
func (s *Suite) Fig15() (*Table, error) {
	return s.pairSweep("fig15", "backprop and bfs vs occupancy, GTX680 (paper Fig. 15)",
		device.GTX680(), "backprop", "bfs")
}

func (s *Suite) pairSweep(id, title string, d *device.Device, nameA, nameB string) (*Table, error) {
	ka, err := kernels.ByName(nameA)
	if err != nil {
		return nil, err
	}
	kb, err := kernels.ByName(nameB)
	if err != nil {
		return nil, err
	}
	r := s.realizer(d, device.SmallCache)
	ra, err := r.Sweep(ka.Prog, s.grid(ka))
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", id, nameA, err)
	}
	rb, err := r.Sweep(kb.Prog, s.grid(kb))
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", id, nameB, err)
	}
	norm := func(res []core.LevelResult) []float64 {
		ref := float64(res[len(res)-1].Stats.Cycles)
		out := make([]float64, len(res))
		for i, lr := range res {
			out[i] = float64(lr.Stats.Cycles) / ref
		}
		return out
	}
	na, nb := norm(ra), norm(rb)
	t := &Table{
		ID:     id,
		Title:  title,
		Header: []string{"occupancy", nameA, nameB},
	}
	for i := range ra {
		bCell := "-"
		if i < len(nb) {
			bCell = f3(nb[i])
		}
		t.AddRow(f3(ra[i].Occupancy(d.MaxWarpsPerSM)), f3(na[i]), bCell)
	}
	t.AddNote("runtimes normalized to each kernel's maximum-occupancy level")
	return t, nil
}

// Fig5 reproduces Figure 5: running time of the no-space-minimization and
// no-movement-minimization inter-procedural allocators, normalized to the
// fully optimized allocator. Every variant is compiled with the same
// hardware register budget and runs at the occupancy its own register
// demand naturally allows — exactly how an inferior allocator hurts in
// practice: no space minimization inflates the per-thread footprint and
// costs residency; no movement minimization executes more compress/
// restore moves at every call.
func (s *Suite) Fig5() (*Table, error) {
	d := device.GTX680()
	t := &Table{
		ID:     "fig5",
		Title:  "inter-procedural allocation ablations, GTX680 (paper Fig. 5)",
		Header: []string{"benchmark", "no space min", "no movement min", "localslots full/nospace", "moves full/nomove"},
	}
	ks, err := kernels.Fig5()
	if err != nil {
		return nil, err
	}
	rows := make([][]string, len(ks))
	err = s.forEachRow(len(ks), func(i int) error {
		k := ks[i]
		grid := s.grid(k)
		// A demanding but not extreme target (75% of maximum) puts all
		// variants in the regime where allocation quality shows: the
		// no-space variant must spill what the compressible stack would
		// have packed, the no-movement variant executes extra moves.
		lvls := coreLevels(d, k.Prog.BlockDim)
		target := lvls[(len(lvls)-1)*3/4]
		run := func(opt interproc.Options) (*sim.Stats, *core.Version, error) {
			r := s.realizer(d, device.SmallCache)
			r.Interproc = opt
			v, err := r.Realize(k.Prog, target)
			if err != nil {
				return nil, nil, err
			}
			st, err := v.RunAt(d, device.SmallCache, target,
				&interp.Launch{Prog: v.Prog, GridWarps: grid})
			return st, v, err
		}
		base, fullVer, err := run(interproc.DefaultOptions())
		if err != nil {
			return fmt.Errorf("fig5 %s full: %w", k.Name, err)
		}
		noSpace, noSpaceVer, err := run(interproc.Options{SpaceMin: false, MoveMin: false})
		if err != nil {
			return fmt.Errorf("fig5 %s no-space: %w", k.Name, err)
		}
		noMove, noMoveVer, err := run(interproc.Options{SpaceMin: true, MoveMin: false})
		if err != nil {
			return fmt.Errorf("fig5 %s no-move: %w", k.Name, err)
		}
		rows[i] = []string{k.Name,
			f3(float64(noSpace.Cycles) / float64(base.Cycles)),
			f3(float64(noMove.Cycles) / float64(base.Cycles)),
			fmt.Sprintf("%d/%d", fullVer.LocalSlots, noSpaceVer.LocalSlots),
			fmt.Sprintf("%d/%d", fullVer.Moves, noMoveVer.Moves)}
		s.logf("fig5 %s done", k.Name)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.AddNote("all variants at 75%% of maximum occupancy on GTX680; normalized to the fully optimized allocator")
	return t, nil
}

func coreLevels(d *device.Device, blockDim int) []int {
	return occupancy.Levels(d, blockDim)
}

func levelsDesc(d *device.Device, blockDim int) []int {
	asc := coreLevels(d, blockDim)
	out := make([]int, len(asc))
	for i, v := range asc {
		out[len(asc)-1-i] = v
	}
	return out
}

// Fig11 reproduces Figure 11: normalized speedup over the nvcc baseline
// for the seven upward benchmarks on both devices — Orion-Min (worst
// occupancy), Orion-Max (best via exhaustive search), and Orion-Select
// (static + dynamic tuning, overhead included).
func (s *Suite) Fig11() (*Table, error) {
	t := &Table{
		ID:     "fig11",
		Title:  "speedup over nvcc: Orion-Min / Orion-Max / Orion-Select (paper Fig. 11)",
		Header: []string{"device", "benchmark", "Orion-Min", "nvcc", "Orion-Max", "Orion-Select", "tune iters"},
	}
	devs := device.Both()
	ks, err := kernels.Upward()
	if err != nil {
		return nil, err
	}
	type fig11Row struct {
		cells []string
		ratio float64 // Orion-Select speedup over the baseline
	}
	rows := make([]fig11Row, len(devs)*len(ks))
	err = s.forEachRow(len(rows), func(idx int) error {
		dev, k := devs[idx/len(ks)], ks[idx%len(ks)]
		r := s.realizer(dev, device.SmallCache)
		grid := s.grid(k)
		_, baseStats, err := r.Baseline(k.Prog, grid)
		if err != nil {
			return fmt.Errorf("fig11 %s/%s baseline: %w", dev.Name, k.Name, err)
		}
		sweep, err := r.Sweep(k.Prog, grid)
		if err != nil {
			return fmt.Errorf("fig11 %s/%s sweep: %w", dev.Name, k.Name, err)
		}
		worst, best := sweep[0].Stats.Cycles, sweep[0].Stats.Cycles
		for _, lr := range sweep {
			if lr.Stats.Cycles > worst {
				worst = lr.Stats.Cycles
			}
			if lr.Stats.Cycles < best {
				best = lr.Stats.Cycles
			}
		}
		rep, err := r.Tune(k.Prog, core.Launch{GridWarps: grid, Iterations: k.Iterations})
		if err != nil {
			return fmt.Errorf("fig11 %s/%s tune: %w", dev.Name, k.Name, err)
		}
		// Amortized cost including tuning overhead: the baseline runs
		// the same number of iterations. Split pieces jointly cover one
		// grid, so they compare against a single baseline launch.
		selectCycles := float64(rep.TotalCycles)
		baseTotal := float64(baseStats.Cycles)
		if !rep.KernelSplit {
			baseTotal *= float64(len(rep.History))
		}
		base := float64(baseStats.Cycles)
		rows[idx] = fig11Row{
			cells: []string{dev.Name, k.Name,
				f3(base / float64(worst)),
				"1.000",
				f3(base / float64(best)),
				f3(baseTotal / selectCycles),
				d2(rep.TuneIterations)},
			ratio: baseTotal / selectCycles,
		}
		s.logf("fig11 %s %s done", dev.Name, k.Name)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for di, dev := range devs {
		var sumSelect float64
		for ki := range ks {
			row := rows[di*len(ks)+ki]
			t.AddRow(row.cells...)
			sumSelect += row.ratio
		}
		t.AddNote("%s average Orion-Select speedup: %.2f%%", dev.Name, (sumSelect/float64(len(ks))-1)*100)
	}
	return t, nil
}

// Fig12 reproduces Figure 12: downward occupancy tuning for the five
// low-pressure benchmarks — register-file use and runtime normalized to
// the nvcc version.
func (s *Suite) Fig12() (*Table, error) {
	t := &Table{
		ID:     "fig12",
		Title:  "downward tuning: registers and runtime vs nvcc (paper Fig. 12)",
		Header: []string{"device", "benchmark", "registers", "runtime", "occupancy"},
	}
	devs := device.Both()
	ks, err := kernels.Downward()
	if err != nil {
		return nil, err
	}
	rows := make([]*downRow, len(devs)*len(ks))
	err = s.forEachRow(len(rows), func(idx int) error {
		dev, k := devs[idx/len(ks)], ks[idx%len(ks)]
		row, err := s.downwardRow(dev, k)
		if err != nil {
			return fmt.Errorf("fig12 %s/%s: %w", dev.Name, k.Name, err)
		}
		rows[idx] = row
		s.logf("fig12 %s %s done", dev.Name, k.Name)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for di, dev := range devs {
		var regSum, rtSum float64
		for ki, k := range ks {
			row := rows[di*len(ks)+ki]
			t.AddRow(dev.Name, k.Name, f3(row.regRatio), f3(row.rtRatio), f3(row.occ))
			regSum += row.regRatio
			rtSum += row.rtRatio
		}
		t.AddNote("%s average: registers %.1f%%, runtime %+.2f%%",
			dev.Name, (regSum/float64(len(ks)))*100, (rtSum/float64(len(ks))-1)*100)
	}
	t.AddNote("register-file utilization and runtime normalized to nvcc; occupancy = selected/maximum")
	return t, nil
}

type downRow struct {
	regRatio float64
	rtRatio  float64
	occ      float64
	selected *core.Candidate
	selStats *sim.Stats
	baseline *sim.Stats
	baseVer  *core.Version
}

func (s *Suite) downwardRow(dev *device.Device, k *kernels.Kernel) (*downRow, error) {
	r := s.realizer(dev, device.SmallCache)
	grid := s.grid(k)
	baseVer, baseStats, err := r.Baseline(k.Prog, grid)
	if err != nil {
		return nil, err
	}
	rep, err := r.Tune(k.Prog, core.Launch{GridWarps: grid, Iterations: k.Iterations})
	if err != nil {
		return nil, err
	}
	sel := rep.Chosen
	st, err := sel.Version.RunAt(dev, device.SmallCache, sel.TargetWarps,
		&interp.Launch{Prog: sel.Version.Prog, GridWarps: grid})
	if err != nil {
		return nil, err
	}
	// Register-file utilization scales with resident warps (the binary is
	// the same for downward tuning, so per-thread registers are equal).
	baseUtil := float64(baseVer.Natural.ActiveWarps * baseVer.RegsPerThread)
	selWarps := sel.TargetWarps
	if selWarps > sel.Version.Natural.ActiveWarps {
		selWarps = sel.Version.Natural.ActiveWarps
	}
	selUtil := float64(selWarps * sel.Version.RegsPerThread)
	return &downRow{
		regRatio: selUtil / baseUtil,
		rtRatio:  float64(st.Cycles) / float64(baseStats.Cycles),
		occ:      float64(selWarps) / float64(dev.MaxWarpsPerSM),
		selected: sel,
		selStats: st,
		baseline: baseStats,
		baseVer:  baseVer,
	}, nil
}

// Fig13 reproduces Figure 13: normalized energy of the selected kernel vs
// the ideal (exhaustive-search) energy, on Tesla C2075.
func (s *Suite) Fig13() (*Table, error) {
	dev := device.TeslaC2075()
	t := &Table{
		ID:     "fig13",
		Title:  "energy of selected kernel, C2075 (paper Fig. 13)",
		Header: []string{"benchmark", "selected", "ideal"},
	}
	ks, err := kernels.Downward()
	if err != nil {
		return nil, err
	}
	rows := make([][]string, len(ks))
	err = s.forEachRow(len(ks), func(i int) error {
		k := ks[i]
		row, err := s.downwardRow(dev, k)
		if err != nil {
			return fmt.Errorf("fig13 %s: %w", k.Name, err)
		}
		r := s.realizer(dev, device.SmallCache)
		sweep, err := r.Sweep(k.Prog, s.grid(k))
		if err != nil {
			return fmt.Errorf("fig13 %s sweep: %w", k.Name, err)
		}
		// Ideal: minimal energy among levels whose runtime stays within the
		// tuner's tolerance of the best runtime.
		best := sweep[0].Stats.Cycles
		for _, lr := range sweep {
			if lr.Stats.Cycles < best {
				best = lr.Stats.Cycles
			}
		}
		ideal := math.Inf(1)
		for _, lr := range sweep {
			if float64(lr.Stats.Cycles) <= float64(best)*(1+core.SlowdownTolerance) &&
				lr.Stats.Energy < ideal {
				ideal = lr.Stats.Energy
			}
		}
		rows[i] = []string{k.Name,
			f3(row.selStats.Energy / row.baseline.Energy),
			f3(ideal / row.baseline.Energy)}
		s.logf("fig13 %s done", k.Name)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.AddNote("energy normalized to the nvcc version; ideal = lowest-energy level within %.0f%% of best runtime", core.SlowdownTolerance*100)
	return t, nil
}

// Table2 reproduces Table 2: per-benchmark characteristics as measured on
// our kernels, next to the paper's values.
func (s *Suite) Table2() (*Table, error) {
	t := &Table{
		ID:     "table2",
		Title:  "benchmark characteristics (paper Table 2)",
		Header: []string{"benchmark", "domain", "reg", "reg(paper)", "func", "func(paper)", "smem", "smem(paper)"},
	}
	d := device.GTX680()
	ks, err := kernels.Table2()
	if err != nil {
		return nil, err
	}
	rows := make([][]string, len(ks))
	err = s.forEachRow(len(ks), func(i int) error {
		k := ks[i]
		r := s.realizer(d, device.SmallCache)
		// Reg: registers needed to avoid spilling = the original version's
		// per-thread register requirement (capped by hardware).
		v, err := r.Realize(k.Prog, coreLevels(d, k.Prog.BlockDim)[0])
		if err != nil {
			return fmt.Errorf("table2 %s: %w", k.Name, err)
		}
		rows[i] = []string{k.Name, k.Domain,
			d2(v.RegsPerThread), d2(k.PaperReg),
			d2(k.Prog.StaticCalls()), d2(k.PaperFunc),
			yn(k.Prog.UsesUserShared()), yn(k.PaperSmem)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	return t, nil
}

func yn(b bool) string {
	if b {
		return "Yes"
	}
	return "No"
}

// Table3 reproduces Table 3: speedup over the nvcc baseline with the
// small-cache vs large-cache configuration at Orion's selected occupancy.
func (s *Suite) Table3() (*Table, error) {
	t := &Table{
		ID:     "table3",
		Title:  "small cache vs large cache at selected occupancy (paper Table 3)",
		Header: []string{"benchmark", "C2075 SC", "C2075 LC", "GTX680 SC", "GTX680 LC"},
	}
	ks, err := kernels.Upward()
	if err != nil {
		return nil, err
	}
	devs := device.Both()
	// One job per (kernel, device); each fills the row's two cache-config
	// cells for its device.
	cells := make([][]string, len(ks)*len(devs))
	err = s.forEachRow(len(cells), func(idx int) error {
		k, dev := ks[idx/len(devs)], devs[idx%len(devs)]
		grid := s.grid(k)
		rSC := s.realizer(dev, device.SmallCache)
		_, baseStats, err := rSC.Baseline(k.Prog, grid)
		if err != nil {
			return fmt.Errorf("table3 %s/%s: %w", dev.Name, k.Name, err)
		}
		rep, err := rSC.Tune(k.Prog, core.Launch{GridWarps: grid, Iterations: k.Iterations})
		if err != nil {
			return fmt.Errorf("table3 %s/%s tune: %w", dev.Name, k.Name, err)
		}
		target := rep.Chosen.TargetWarps
		for _, cc := range []device.CacheConfig{device.SmallCache, device.LargeCache} {
			r := s.realizer(dev, cc)
			v, err := r.Realize(k.Prog, target)
			if err != nil {
				cells[idx] = append(cells[idx], "-") // hardware constraints prevent this case
				continue
			}
			st, err := v.RunAt(dev, cc, target, &interp.Launch{Prog: v.Prog, GridWarps: grid})
			if err != nil {
				return err
			}
			cells[idx] = append(cells[idx], f3(float64(baseStats.Cycles)/float64(st.Cycles)))
		}
		s.logf("table3 %s %s done", dev.Name, k.Name)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ki, k := range ks {
		row := []string{k.Name}
		for di := range devs {
			row = append(row, cells[ki*len(devs)+di]...)
		}
		t.AddRow(row...)
	}
	t.AddNote("speedup over the nvcc (small cache) baseline at Orion's selected occupancy; '-' = infeasible under LC")
	return t, nil
}
