// Command orion is the CLI for the Orion occupancy tuning framework.
//
// Subcommands:
//
//	orion compile  -kernel NAME | -file K.oasm|K.orn  [-device gtx680|c2075] [-cache sc|lc]
//	    Run compile-time tuning (paper Fig. 8): direction, max-live, the
//	    candidate versions, and each candidate's resource footprint. -file
//	    takes OASM text or the ORN1 binary cmd/oasm writes, as the daemon
//	    does; -grid/-iters decide whether the launch can be tuned, as for
//	    tune and build.
//	orion tune     -kernel ... [-grid N] [-iters N] [-fat K.ofat] [-explain]
//	    Run the full pipeline including runtime adaptation (Fig. 9) on the
//	    simulated device and report the selected occupancy. With -fat, the
//	    runtime adapts from a prebuilt multi-version binary instead of
//	    recompiling; the binary must be built from the same program
//	    -kernel/-file loads (its source's fingerprint is compared).
//	    -explain prints one line per tuning iteration with the measured
//	    time and the accept/reject rationale, then profiles the selected
//	    level as 'profile' does.
//	orion build    -kernel ... -o K.ofat
//	    Compile-time tuning only, packaged as the paper's multi-version
//	    binary (Fig. 3).
//	orion sweep    -kernel ...
//	    Compile and simulate every occupancy level (the paper's
//	    exhaustive-search comparison).
//	orion run      -kernel ... -warps N [-grid N]
//	    Simulate a single occupancy level and print its statistics.
//	orion profile  -kernel ... -warps N [-json out.json]
//	    Simulate one level with issue tracing and print a per-warp
//	    timeline plus the stall breakdown, then a PC-level hot-spot
//	    report: per-instruction issue counts and attributed stall
//	    cycles resolved to spill webs via the compiler's provenance
//	    map. -json writes the report as a machine-readable artifact;
//	    with -trace, sampled counter tracks (resident warps, IPC,
//	    MSHR pressure) appear next to the span tracks.
//	orion predict  -kernel ...
//	    Compare the MWP-CWP analytical model (Hong & Kim, the paper's
//	    references [12]/[13]) against the simulator per occupancy level.
//	orion lint     -kernel ... [-realized]
//	    Run the SIMT static analyzer (divergent barriers, shared-memory
//	    races, definite-use checks) on the input program and, with
//	    -realized, on every realized occupancy level. Exits nonzero when
//	    error-severity findings exist.
//	orion list
//	    List the built-in benchmark kernels.
//	orion serve    [-addr HOST:PORT] [-store DIR] [-workers N] [-queue N]
//	    Run the tuning daemon: POST kernels to /v1/tune, /v1/compile, or
//	    /v1/sweep (body = OASM text or ORN1 binary, or ?kernel=NAME for a
//	    built-in), fetch cached artifacts from /v1/artifact/{kind}/{key},
//	    and scrape /metrics and /healthz. Tune responses are the same
//	    canonical JSON `orion tune -json` writes; with -store they
//	    persist across restarts.
//
// All compiling subcommands accept -lint strict|off (default
// strict): strict rejects programs whose analysis has error-severity
// findings before compiling them.
//
// Observability (compile, tune, sweep, run):
//
//	-trace out.json    write a Chrome trace-event JSON of the invocation
//	                   (load it in Perfetto or chrome://tracing): compile
//	                   phases, tuner iterations, and simulator runs as
//	                   hierarchical spans.
//	-metrics out.json  write a flat metrics snapshot (counters, gauges,
//	                   histograms), including the memo-cache counters.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	orion "repro"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "orion:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: orion compile|tune|sweep|run|list ... (see -h)")
	}
	cmd, rest := args[0], args[1:]
	if cmd == "serve" {
		// The daemon has its own flag set: per-kernel knobs arrive with
		// each HTTP request, not on the command line.
		return runServe(rest, out)
	}

	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	kernelName := fs.String("kernel", "", "built-in benchmark name (see 'orion list')")
	file := fs.String("file", "", "kernel file, OASM text or ORN1 binary (alternative to -kernel)")
	devName := fs.String("device", "gtx680", "gtx680 or c2075")
	cacheName := fs.String("cache", "sc", "sc (48KB shared) or lc (48KB L1)")
	grid := fs.Int("grid", 0, "grid size in warps (default: benchmark's)")
	iters := fs.Int("iters", 0, "application iterations (default: benchmark's)")
	warps := fs.Int("warps", 0, "occupancy level for 'run' (warps per SM)")
	out_ := fs.String("o", "", "output file for 'build'")
	fat := fs.String("fat", "", "multi-version binary (.ofat) for 'tune', built by 'orion build' from the same program -kernel/-file loads")
	traceOut := fs.String("trace", "", "write a Chrome trace-event JSON (Perfetto-loadable) to this file")
	metricsOut := fs.String("metrics", "", "write a metrics JSON snapshot to this file")
	explain := fs.Bool("explain", false, "for 'tune': print one line per tuning iteration explaining the decision")
	verify := fs.Bool("verify", true, "check allocation invariants and differential semantics on every realized version")
	lintFlag := fs.String("lint", "strict", "static-analysis gate: strict (reject on errors) or off")
	realized := fs.Bool("realized", false, "for 'lint': also analyze every realized occupancy level")
	optFlag := fs.Bool("opt", false, "run the pressure-reducing middle end (pressure-aware scheduling, legality-checked) before allocation")
	jsonOut := fs.String("json", "", "for 'profile'/'tune': write the report as JSON to this file (tune writes the canonical report, byte-identical to `orion serve`'s)")

	if cmd == "list" {
		ks, err := orion.Benchmarks()
		if err != nil {
			return err
		}
		for _, k := range ks {
			fmt.Fprintf(out, "%-18s %-16s grid %5d warps, %d iterations\n",
				k.Name, k.Domain, k.GridWarps, k.Iterations)
		}
		return nil
	}
	if err := fs.Parse(rest); err != nil {
		return err
	}
	// Zero keeps the kernel's own launch; a negative count is an error,
	// as it is for the daemon's ?grid= and ?iters=.
	if *grid < 0 {
		return fmt.Errorf("bad -grid %d: want a positive warp count, or 0 for the kernel's own", *grid)
	}
	if *iters < 0 {
		return fmt.Errorf("bad -iters %d: want a positive count, or 0 for the kernel's own", *iters)
	}

	// The collector exists only when an export was requested, so the
	// default path stays on the nil (zero-overhead) side of the obs layer.
	var col *orion.Collector
	if *traceOut != "" || *metricsOut != "" {
		col = orion.NewCollector()
	}

	dev, err := device.ByName(*devName)
	if err != nil {
		return err
	}
	cc, err := device.ParseCacheConfig(*cacheName)
	if err != nil {
		return err
	}
	dsp := col.StartSpan("decode")
	var prog *orion.Program
	gridWarps, iterations := 1024, 8 // the launch of a kernel that brings none
	switch {
	case *kernelName != "" && *file != "":
		err = fmt.Errorf("use -kernel or -file, not both")
	case *kernelName != "":
		var k *orion.Kernel
		if k, err = orion.Benchmark(*kernelName); err == nil {
			prog, gridWarps, iterations = k.Prog, k.GridWarps, k.Iterations
		}
	case *file != "":
		var data []byte
		if data, err = os.ReadFile(*file); err == nil {
			prog, err = isa.Load(data)
		}
	default:
		err = fmt.Errorf("a kernel is required: -kernel NAME or -file K.oasm|K.orn")
	}
	if err != nil {
		dsp.End()
		return err
	}
	dsp.SetAttr(obs.String("kernel", prog.Name))
	dsp.End()
	if *grid > 0 {
		gridWarps = *grid
	}
	if *iters > 0 {
		iterations = *iters
	}
	lintMode, err := orion.ParseLintMode(*lintFlag)
	if err != nil {
		return err
	}
	launch := orion.Launch{GridWarps: gridWarps, Iterations: iterations}
	r := orion.NewRealizer(dev, cc)
	r.Obs = col
	r.Verify = *verify
	r.Lint = lintMode
	r.Opt = *optFlag

	dispatch := func() error {
		switch cmd {
		case "lint":
			return runLint(out, r, prog, dev, *realized)

		case "compile":
			cr, err := r.Compile(prog, r.CanTune(prog, launch))
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "kernel %s on %s (%v cache)\n", prog.Name, dev.Name, cc)
			fmt.Fprintf(out, "max-live %d, direction %v\n", cr.MaxLive, cr.Direction)
			fmt.Fprintf(out, "original: %d regs/thread, %d B shared/block, natural occupancy %.3f (%d warps/SM)\n",
				cr.Original.RegsPerThread, cr.Original.SharedPerBlock,
				cr.Original.Occupancy(dev), cr.Original.Natural.ActiveWarps)
			for i, c := range cr.Candidates {
				fmt.Fprintf(out, "candidate %d: target %d warps/SM (occ %.3f), %d regs, %d B shared, %d local slots\n",
					i+1, c.TargetWarps, c.Occupancy(dev), c.Version.RegsPerThread,
					c.Version.SharedPerBlock, c.Version.LocalSlots)
			}
			for _, c := range cr.FailSafe {
				fmt.Fprintf(out, "fail-safe: target %d warps/SM\n", c.TargetWarps)
			}
			return nil

		case "tune":
			var rep *orion.TuneReport
			if *fat != "" {
				// Runtime-only deployment: adapt from a prebuilt multi-version
				// binary without recompiling (paper Figure 3).
				data, err := os.ReadFile(*fat)
				if err != nil {
					return err
				}
				cr, err := orion.DecodeFat(data)
				if err != nil {
					return err
				}
				// The launch, the labels and a -json report's fingerprint all
				// come from the loaded program, so the binary must be built
				// from it: its source is the loaded program, byte for byte.
				if src, fp := cr.Source.Fingerprint(), prog.Fingerprint(); src != fp {
					return fmt.Errorf("%s was built from another program (kernel %s, %.12s) than the loaded kernel %s (%.12s)",
						*fat, cr.Source.Name, src, prog.Name, fp)
				}
				rep, err = r.TuneCompiled(cr, launch)
				if err != nil {
					return err
				}
			} else {
				var err error
				rep, err = r.Tune(prog, launch)
				if err != nil {
					return err
				}
			}
			fmt.Fprintf(out, "kernel %s on %s: direction %v, %d candidates\n",
				prog.Name, dev.Name, rep.Compile.Direction, len(rep.Compile.Candidates))
			if rep.KernelSplit {
				fmt.Fprintln(out, "single invocation: kernel splitting created the tuning iterations")
			}
			fmt.Fprintf(out, "selected %d warps/SM (occupancy %.3f) after %d tuning iterations\n",
				rep.Chosen.TargetWarps, rep.Chosen.Occupancy(dev), rep.TuneIterations)
			fmt.Fprintf(out, "total: %d cycles over %d runs, energy %.1f\n",
				rep.TotalCycles, len(rep.History), rep.TotalEnergy)
			if *explain {
				printDecisions(out, rep)
				// Profile the winner at the launch's grid so the explanation
				// ties the occupancy decision to instruction-level evidence
				// (hot stall sites, spill-web costs).
				c := rep.Chosen
				st, err := orion.Profile(c.Version, dev, cc, c.TargetWarps, gridWarps, col)
				if err != nil {
					return err
				}
				prep := orion.BuildProfileReport(c.Version, dev, st)
				prep.TargetWarps, prep.GridWarps = c.TargetWarps, gridWarps
				prep.Render(out)
			}
			if *jsonOut != "" {
				// The canonical report: the same builder and encoding the
				// serve daemon uses, so this file is byte-identical to the
				// /v1/tune response for the same kernel and parameters.
				p := serve.NewParams(prog, dev, cc, launch, lintMode, *verify)
				data := serve.EncodeReport(serve.BuildReport(p, prog, dev, r.CanTune(prog, launch), rep))
				if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
					return err
				}
			}
			return nil

		case "sweep":
			before := core.SnapshotCacheCounters()
			res, err := r.Sweep(prog, gridWarps)
			if err != nil {
				return err
			}
			lad := core.SnapshotCacheCounters().Delta(before).Ladder
			best := res[0].Stats.Cycles
			for _, lr := range res {
				if lr.Stats.Cycles < best {
					best = lr.Stats.Cycles
				}
			}
			fmt.Fprintf(out, "%-9s %-8s %-5s %-9s %-12s %-10s %-8s %-10s\n", "occupancy", "warps", "regs", "maxlive", "cycles", "normalized", "energy", "realize")
			for _, lr := range res {
				// maxlive is before→after the middle end; a bare number means
				// the pipeline was off or left this level untouched.
				ml := fmt.Sprintf("%d", lr.Version.MaxLivePre)
				if lr.Version.MaxLivePost != lr.Version.MaxLivePre {
					ml = fmt.Sprintf("%d→%d", lr.Version.MaxLivePre, lr.Version.MaxLivePost)
				}
				fmt.Fprintf(out, "%-9.3f %-8d %-5d %-9s %-12d %-10.3f %-8.0f %-10v\n",
					lr.Occupancy(dev.MaxWarpsPerSM), lr.TargetWarps,
					lr.Version.RegsPerThread, ml, lr.Stats.Cycles,
					float64(lr.Stats.Cycles)/float64(best), lr.Stats.Energy,
					lr.RealizeTime.Round(time.Microsecond))
			}
			fmt.Fprintf(out, "ladder: %d reused, %d recolored\n", lad.Reuse, lad.Recolor)
			return nil

		case "run":
			if *warps <= 0 {
				return fmt.Errorf("run requires -warps")
			}
			v, err := r.Realize(prog, *warps)
			if err != nil {
				return err
			}
			st, err := orion.Simulate(v, dev, cc, *warps, gridWarps, col)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%s at %d warps/SM on %s: %d cycles, %d instructions (IPC %.2f)\n",
				prog.Name, *warps, dev.Name, st.Cycles, st.Instructions, st.IPC())
			fmt.Fprintf(out, "regs/thread %d, shared/block %d B, local slots %d, spill instrs %d, moves %d\n",
				v.RegsPerThread, v.SharedPerBlock, v.LocalSlots, st.SpillInstrs, st.MoveInstrs)
			fmt.Fprintf(out, "L1 %d/%d hit, L2 %d/%d hit, DRAM lines %d, energy %.1f (rf %.1f)\n",
				st.L1Hits, st.L1Hits+st.L1Misses, st.L2Hits, st.L2Hits+st.L2Misses,
				st.DRAMLines, st.Energy, st.EnergyRF)
			fmt.Fprintf(out, "stalls (warp-cycles): mem %d, alu %d, barrier %d, mshr %d\n",
				st.StallMem, st.StallALU, st.StallBarrier, st.StallMSHR)
			fmt.Fprintf(out, "checksum %016x\n", st.Checksum)
			return nil

		case "build":
			// Compile-time tuning only, packaged as the paper's multi-version
			// binary (Figure 3) for a later 'tune -fat'.
			if *out_ == "" {
				return fmt.Errorf("build requires -o FILE.ofat")
			}
			cr, err := r.Compile(prog, r.CanTune(prog, launch))
			if err != nil {
				return err
			}
			data := orion.EncodeFat(cr)
			if err := os.WriteFile(*out_, data, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(out, "wrote %s: %d versions (%d candidates, %d fail-safe), direction %v, %d bytes\n",
				*out_, 1+len(cr.Candidates)+len(cr.FailSafe), len(cr.Candidates), len(cr.FailSafe),
				cr.Direction, len(data))
			return nil

		case "profile":
			if *warps <= 0 {
				return fmt.Errorf("profile requires -warps")
			}
			v, err := r.Realize(prog, *warps)
			if err != nil {
				return err
			}
			st, err := orion.Profile(v, dev, cc, *warps, gridWarps, col)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%s at %d warps/SM on %s: %d cycles\n", prog.Name, *warps, dev.Name, st.Cycles)
			fmt.Fprintf(out, "stalls (warp-cycles): mem %d, alu %d, barrier %d, mshr %d\n",
				st.StallMem, st.StallALU, st.StallBarrier, st.StallMSHR)
			fmt.Fprint(out, st.Profile.Timeline(st.Cycles, 100))
			rep := orion.BuildProfileReport(v, dev, st)
			rep.GridWarps = gridWarps
			rep.Render(out)
			if *jsonOut != "" {
				data, err := json.MarshalIndent(rep, "", "  ")
				if err != nil {
					return err
				}
				if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
					return err
				}
			}
			return nil

		case "predict":
			// MWP-CWP analytical prediction across occupancy levels, next to
			// simulation — the prediction-vs-feedback comparison the paper
			// draws with [12]/[13].
			fmt.Fprintf(out, "%-9s %-10s %-10s %-6s %-6s %-12s\n", "warps/SM", "predicted", "simulated", "MWP", "CWP", "bound")
			for _, lvl := range orion.OccupancyLevels(dev, prog.BlockDim) {
				v, err := r.Realize(prog, lvl)
				if err != nil {
					continue
				}
				pr, err := orion.PredictOccupancy(dev, v.Prog, lvl, gridWarps)
				if err != nil {
					return err
				}
				st, err := orion.Simulate(v, dev, cc, lvl, gridWarps, nil)
				if err != nil {
					return err
				}
				fmt.Fprintf(out, "%-9d %-10.0f %-10d %-6.1f %-6.1f %-12s\n",
					lvl, pr.Cycles, st.Cycles, pr.MWP, pr.CWP, pr.Bound)
			}
			return nil
		}
		return fmt.Errorf("unknown subcommand %q", cmd)
	}

	if err := dispatch(); err != nil {
		return err
	}
	return writeObsOutputs(col, *traceOut, *metricsOut)
}

// runLint implements the lint subcommand: analyze the input program and,
// when realized is set, every realized occupancy level; print findings in
// deterministic order and fail when any error-severity finding exists.
func runLint(out io.Writer, r *orion.Realizer, prog *orion.Program, dev *orion.Device, realized bool) error {
	total, nerr := 0, 0
	report := func(scope string, diags []orion.Diagnostic) {
		if len(diags) == 0 {
			fmt.Fprintf(out, "%s: clean\n", scope)
			return
		}
		for _, d := range diags {
			fmt.Fprintf(out, "%s: %s\n", scope, d.String())
			total++
			if d.Sev == orion.SevError {
				nerr++
			}
		}
	}
	report("lint "+prog.Name, orion.AnalyzeKernel(prog))
	if realized {
		// Realize with the gate off — the point is to report findings, not
		// to abort on the first bad level.
		rr := *r
		rr.Lint = orion.LintOff
		lad := rr.NewLadder(prog)
		for _, lvl := range orion.OccupancyLevels(dev, prog.BlockDim) {
			v, err := lad.Realize(lvl)
			if err != nil {
				fmt.Fprintf(out, "lint %s@%d: not realizable (%v)\n", prog.Name, lvl, err)
				continue
			}
			report(fmt.Sprintf("lint %s@%d", prog.Name, lvl), orion.AnalyzeKernel(v.Prog))
		}
	}
	if total > 0 {
		fmt.Fprintf(out, "%d finding", total)
		if total != 1 {
			fmt.Fprint(out, "s")
		}
		fmt.Fprintf(out, " (%d error", nerr)
		if nerr != 1 {
			fmt.Fprint(out, "s")
		}
		fmt.Fprintln(out, ")")
	}
	if nerr > 0 {
		return fmt.Errorf("lint: %d error-severity finding(s)", nerr)
	}
	return nil
}

// printDecisions renders the tuner's per-iteration decision log (the
// -explain report).
func printDecisions(out io.Writer, rep *orion.TuneReport) {
	if len(rep.Decisions) == 0 {
		fmt.Fprintln(out, "no runtime decisions: static selection chose the kernel")
		return
	}
	fmt.Fprintln(out, "tuning decisions:")
	for _, d := range rep.Decisions {
		verdict := "accept"
		if !d.Accepted {
			verdict = "reject"
		}
		fmt.Fprintf(out, "  iter %2d: %2d warps/SM, %12.1f cycles/unit, %+6.2f%% vs best -> %s: %s\n",
			d.Iter, d.TargetWarps, d.Runtime, d.Slowdown*100, verdict, d.Reason)
	}
	fmt.Fprintf(out, "converged on %d warps/SM\n", rep.Chosen.TargetWarps)
}

// writeObsOutputs exports the collected trace and metrics, if requested.
func writeObsOutputs(col *orion.Collector, traceOut, metricsOut string) error {
	if traceOut != "" {
		f, err := os.Create(traceOut)
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
	if metricsOut != "" {
		core.PublishCacheMetrics(col.Metrics())
		f, err := os.Create(metricsOut)
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
