// Command orion-bench regenerates the paper's evaluation tables and
// figures on the simulated devices.
//
// Usage:
//
//	orion-bench [-exp fig1,fig11,... | -exp all] [-scale 1.0] [-progress]
//	            [-parallel N] [-json out.json] [-cpuprofile out.pprof]
//
// At scale 1.0 the full suite sweeps every occupancy level of every
// benchmark on both devices; smaller scales shrink the grids
// proportionally and preserve the shapes. Experiments fan out over a
// bounded worker pool (-parallel, default GOMAXPROCS) and realizations
// are memoized process-wide, so output is byte-identical to a serial,
// cache-free run. -json records per-experiment wall clock and row data
// for performance-trajectory tracking across revisions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	orion "repro"
	"repro/internal/core"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "orion-bench:", err)
		os.Exit(1)
	}
}

// jsonExperiment is one experiment's recorded outcome, including the
// memo-cache traffic it generated (counter deltas across its run) and
// the simulation work it performed (stall breakdown and cache-hierarchy
// counter deltas; run-cache hits perform no simulation, so these cover
// uncached simulations only).
type jsonExperiment struct {
	ID     string             `json:"id"`
	Title  string             `json:"title"`
	WallMS float64            `json:"wall_ms"`
	Header []string           `json:"header"`
	Rows   [][]string         `json:"rows"`
	Notes  []string           `json:"notes,omitempty"`
	Cache  core.CacheSnapshot `json:"cache"`
	Sim    orion.SimTotals    `json:"sim"`
}

// jsonCandidateProfile is one tuning candidate's PC-profile summary for
// the -profile report: where its cycles went (stall attribution), how
// much spill traffic it executes, and its hottest stall site resolved
// against the provenance map.
type jsonCandidateProfile struct {
	TargetWarps   int     `json:"target_warps"`
	RegBudget     int     `json:"reg_budget,omitempty"`
	Cycles        uint64  `json:"cycles"`
	Instructions  uint64  `json:"instructions"`
	SpillInstrs   uint64  `json:"spill_instrs"`
	StallMem      uint64  `json:"stall_mem"`
	StallALU      uint64  `json:"stall_alu"`
	StallBarrier  uint64  `json:"stall_barrier"`
	StallMSHR     uint64  `json:"stall_mshr"`
	TopHotSpot    string  `json:"top_hot_spot,omitempty"`
	TopHotSpotWeb string  `json:"top_hot_spot_web,omitempty"`
	CyclesVsBest  float64 `json:"cycles_vs_best"`
}

// jsonMaxLive is one kernel's register-pressure outcome under the
// pressure-reducing middle end on one device, measured at the tightest
// (highest) feasible occupancy level — the budget where the passes have
// the most work to do. Pre == Post means the pipeline left the kernel's
// call-chain max-live unchanged at that level.
type jsonMaxLive struct {
	Kernel      string `json:"kernel"`
	Device      string `json:"device"`
	TargetWarps int    `json:"target_warps"`
	Pre         int    `json:"max_live_pre"`
	Post        int    `json:"max_live_post"`
}

// jsonReport is the -json artifact: enough to diff both the numbers and
// the wall-clock trajectory between revisions. The cache counters cover
// this invocation only (the counters are reset at startup).
type jsonReport struct {
	Scale       float64          `json:"scale"`
	Parallel    int              `json:"parallel"`
	SimBackend  string           `json:"sim_backend"`
	Experiments []jsonExperiment `json:"experiments"`
	TotalWallMS float64          `json:"total_wall_ms"`
	CacheHits   uint64           `json:"realize_cache_hits"`
	CacheMisses uint64           `json:"realize_cache_misses"`
	RunHits     uint64           `json:"run_cache_hits"`
	RunMisses   uint64           `json:"run_cache_misses"`
	// Ladder counters for the whole invocation: occupancy levels served
	// from a shared allocation and per-function re-colorings.
	LadderReuse   uint64 `json:"ladder_reuse"`
	LadderRecolor uint64 `json:"ladder_recolor"`
	// Legality-check counters for the whole invocation: middle-end
	// schedules checked, and rejected (reverted to the input).
	TVChecked  uint64 `json:"tv_checked"`
	TVRejected uint64 `json:"tv_rejected"`
	// CandidateProfiles is filled by -profile KERNEL: a PC-profile of
	// every tuning candidate of that kernel on the gtx680/sc platform.
	CandidateProfiles []jsonCandidateProfile `json:"candidate_profiles,omitempty"`
	// MaxLive is filled by -opt: per kernel × device, the call-chain
	// max-live before and after the middle-end pass pipeline at the
	// tightest feasible occupancy level.
	MaxLive []jsonMaxLive `json:"max_live,omitempty"`
	Metrics any           `json:"metrics,omitempty"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("orion-bench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "comma-separated experiment ids (fig1,fig2,fig5,fig10..fig15,table2,table3) or 'all'")
	scale := fs.Float64("scale", 1.0, "grid scale factor (1.0 = recorded configuration)")
	progress := fs.Bool("progress", false, "print per-step progress to stderr")
	format := fs.String("format", "text", "output format: text or csv")
	parallel := fs.Int("parallel", 0, "experiment worker pool size (0 = GOMAXPROCS, 1 = serial)")
	noCache := fs.Bool("nocache", false, "disable the realization cache (recompile every version)")
	verify := fs.Bool("verify", true, "check allocation invariants and differential semantics on every realized version")
	lintFlag := fs.String("lint", "strict", "static-analysis gate: strict (reject on errors), warn, or off")
	optFlag := fs.Bool("opt", false, "run the pressure-reducing middle end before allocation and record per-kernel max-live deltas in -json")
	jsonOut := fs.String("json", "", "write per-experiment wall-clock and row data to this JSON file")
	profileKernel := fs.String("profile", "", "PC-profile every tuning candidate of this kernel (gtx680/sc) and record the deltas in -json")
	traceOut := fs.String("trace", "", "write a Chrome trace-event JSON (Perfetto-loadable) to this file")
	metricsOut := fs.String("metrics", "", "write a metrics JSON snapshot to this file")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *noCache {
		core.SetRealizeCacheEnabled(false)
		core.SetRunCacheEnabled(false)
		defer core.SetRealizeCacheEnabled(true)
		defer core.SetRunCacheEnabled(true)
	}

	// Counters reset at startup so every report covers exactly this
	// invocation, even when the process (or a test binary) is warm.
	core.ResetCacheCounters()
	orion.ResetTVCounters()

	lintMode, err := orion.ParseLintMode(*lintFlag)
	if err != nil {
		return err
	}
	s := orion.NewSuite(*scale)
	s.Parallel = *parallel
	s.Verify = *verify
	s.Lint = lintMode
	s.Opt = *optFlag
	if *progress {
		s.Progress = os.Stderr
	}
	var col *orion.Collector
	if *traceOut != "" || *metricsOut != "" {
		col = orion.NewCollector()
		s.Obs = col
	}
	var selected []string
	if *exp == "all" {
		for _, e := range s.Experiments() {
			selected = append(selected, e.ID)
		}
	} else {
		selected = strings.Split(*exp, ",")
	}

	report := jsonReport{Scale: *scale, Parallel: *parallel, SimBackend: sim.DefaultBackend().String()}
	suiteStart := time.Now()
	fmt.Printf("orion-bench: scale %.3f, experiments: %s\n\n", *scale, strings.Join(selected, ", "))
	for _, id := range selected {
		e, err := s.ByID(strings.TrimSpace(id))
		if err != nil {
			return err
		}
		before := core.SnapshotCacheCounters()
		simBefore := orion.SnapshotSimTotals()
		start := time.Now()
		tbl, err := e.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		wall := time.Since(start)
		tbl.AddNote("wall time %s", wall.Round(time.Millisecond))
		report.Experiments = append(report.Experiments, jsonExperiment{
			ID:     tbl.ID,
			Title:  tbl.Title,
			WallMS: float64(wall.Microseconds()) / 1000,
			Header: tbl.Header,
			Rows:   tbl.Rows,
			Notes:  tbl.Notes,
			Cache:  core.SnapshotCacheCounters().Delta(before),
			Sim:    orion.SnapshotSimTotals().Delta(simBefore),
		})
		if *format == "csv" {
			fmt.Printf("# %s: %s\n", tbl.ID, tbl.Title)
			if err := tbl.WriteCSV(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
		} else {
			tbl.Fprint(os.Stdout)
		}
	}
	report.TotalWallMS = float64(time.Since(suiteStart).Microseconds()) / 1000
	if *profileKernel != "" {
		cps, err := candidateProfiles(*profileKernel, *verify, lintMode)
		if err != nil {
			return fmt.Errorf("-profile %s: %w", *profileKernel, err)
		}
		report.CandidateProfiles = cps
		fmt.Printf("candidate profiles: %s on GTX680 (sc)\n", *profileKernel)
		fmt.Printf("%-8s %-6s %-12s %-12s %-8s %-12s %-12s %-10s %-8s %s\n",
			"warps", "regs", "cycles", "vs-best", "spills", "stall-mem", "stall-alu", "barrier", "mshr", "top hot spot")
		for _, cp := range cps {
			web := ""
			if cp.TopHotSpotWeb != "" {
				web = " ; spill of " + cp.TopHotSpotWeb
			}
			fmt.Printf("%-8d %-6d %-12d %-12.3f %-8d %-12d %-12d %-10d %-8d %s%s\n",
				cp.TargetWarps, cp.RegBudget, cp.Cycles, cp.CyclesVsBest, cp.SpillInstrs,
				cp.StallMem, cp.StallALU, cp.StallBarrier, cp.StallMSHR, cp.TopHotSpot, web)
		}
		fmt.Println()
	}
	if *optFlag {
		mls, err := maxLiveDeltas(*verify, lintMode)
		if err != nil {
			return fmt.Errorf("-opt max-live deltas: %w", err)
		}
		report.MaxLive = mls
		fmt.Println("middle-end max-live (tightest feasible level):")
		fmt.Printf("%-18s %-10s %-8s %-8s %-8s\n", "kernel", "device", "warps", "before", "after")
		for _, ml := range mls {
			fmt.Printf("%-18s %-10s %-8d %-8d %-8d\n",
				ml.Kernel, ml.Device, ml.TargetWarps, ml.Pre, ml.Post)
		}
		fmt.Println()
	}
	report.CacheHits, report.CacheMisses = core.RealizeCacheStats()
	report.RunHits, report.RunMisses = core.RunCacheStats()
	lad := core.LadderStats()
	report.LadderReuse, report.LadderRecolor = lad.Reuse, lad.Recolor
	report.TVChecked, report.TVRejected = orion.TVCounters()
	if col != nil {
		orion.PublishCacheMetrics(col)
		report.Metrics = col.Metrics().Snapshot()
	}

	if *jsonOut != "" {
		data, err := json.MarshalIndent(&report, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			return err
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		if err := col.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			return err
		}
		if err := col.WriteMetricsJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// maxLiveDeltas realizes every benchmark with the middle-end pass
// pipeline on, at the tightest occupancy level each kernel/device pair
// can reach, and records the call-chain max-live before vs after the
// passes. Realizations hit the process-wide memo cache, so running this
// after the experiment suite is nearly free.
func maxLiveDeltas(verify bool, lintMode orion.LintMode) ([]jsonMaxLive, error) {
	ks, err := orion.Benchmarks()
	if err != nil {
		return nil, err
	}
	var out []jsonMaxLive
	for _, d := range orion.Devices() {
		for _, k := range ks {
			r := orion.NewRealizer(d, orion.SmallCache)
			r.Verify = verify
			r.Lint = lintMode
			r.Opt = true
			lad := r.NewLadder(k.Prog)
			levels := orion.OccupancyLevels(d, k.Prog.BlockDim)
			found := false
			for i := len(levels) - 1; i >= 0 && !found; i-- {
				v, err := lad.Realize(levels[i])
				if err != nil {
					continue // infeasible at this level; try a lower one
				}
				out = append(out, jsonMaxLive{
					Kernel:      k.Name,
					Device:      d.Name,
					TargetWarps: levels[i],
					Pre:         v.MaxLivePre,
					Post:        v.MaxLivePost,
				})
				found = true
			}
			if !found {
				return nil, fmt.Errorf("%s on %s: no feasible occupancy level", k.Name, d.Name)
			}
		}
	}
	return out, nil
}

// candidateProfiles compiles the named benchmark on the gtx680/sc
// platform and PC-profiles every tuning candidate at its target
// occupancy, so a revision diff shows where each candidate's cycles go
// (stall attribution, spill traffic) rather than just its total.
func candidateProfiles(name string, verify bool, lintMode orion.LintMode) ([]jsonCandidateProfile, error) {
	k, err := orion.Benchmark(name)
	if err != nil {
		return nil, err
	}
	dev, cc := orion.GTX680(), orion.SmallCache
	r := orion.NewRealizer(dev, cc)
	r.Verify = verify
	r.Lint = lintMode
	cr, err := r.Compile(k.Prog, true)
	if err != nil {
		return nil, err
	}
	cands := cr.Candidates
	if len(cands) == 0 && cr.StaticChoice != nil {
		cands = []*orion.Candidate{cr.StaticChoice}
	}
	spec := &orion.ProfileSpec{PC: true}
	var out []jsonCandidateProfile
	best := ^uint64(0)
	for _, c := range cands {
		st, err := orion.ProfileDetailed(c.Version, dev, cc, c.TargetWarps, k.GridWarps, 0, spec, nil)
		if err != nil {
			return nil, fmt.Errorf("candidate %d warps: %w", c.TargetWarps, err)
		}
		rep := orion.BuildProfileReport(c.Version, dev, st, 1)
		cp := jsonCandidateProfile{
			TargetWarps:  c.TargetWarps,
			RegBudget:    rep.RegBudget,
			Cycles:       st.Cycles,
			Instructions: st.Instructions,
			SpillInstrs:  st.SpillInstrs,
			StallMem:     st.StallMem,
			StallALU:     st.StallALU,
			StallBarrier: st.StallBarrier,
			StallMSHR:    st.StallMSHR,
		}
		if len(rep.HotSpots) > 0 {
			hs := rep.HotSpots[0]
			cp.TopHotSpot = fmt.Sprintf("%s+%d: %s", hs.Func, hs.LocalPC, hs.Text)
			cp.TopHotSpotWeb = hs.Web
		}
		out = append(out, cp)
		if st.Cycles < best {
			best = st.Cycles
		}
	}
	for i := range out {
		out[i].CyclesVsBest = float64(out[i].Cycles) / float64(best)
	}
	return out, nil
}
