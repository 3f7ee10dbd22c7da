// Command orion-bench regenerates the paper's evaluation tables and
// figures on the simulated devices.
//
// Usage:
//
//	orion-bench [-exp fig1,fig11,... | -exp all] [-scale 1.0] [-progress]
//	            [-format text|csv] [-parallel N] [-cpuprofile out.pprof]
//
// At scale 1.0 the full suite sweeps every occupancy level of every
// benchmark on both devices; smaller scales shrink the grids
// proportionally and preserve the shapes. Experiments fan out over a
// bounded worker pool (-parallel, default GOMAXPROCS) and realizations
// are memoized process-wide, so output is byte-identical to a serial
// run. Cache traffic, simulator totals and per-layer timings are the
// benchmark module's metrics (benchmark/README.md), not this command's.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	orion "repro"
	"repro/internal/core"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "orion-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("orion-bench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "comma-separated experiment ids (fig1,fig2,fig5,fig10..fig15,table2,table3) or 'all'")
	scale := fs.Float64("scale", 1.0, "grid scale factor (1.0 = recorded configuration)")
	progress := fs.Bool("progress", false, "print per-step progress to stderr")
	format := fs.String("format", "text", "output format: text or csv")
	parallel := fs.Int("parallel", 0, "experiment worker pool size (0 = GOMAXPROCS, 1 = serial)")
	verify := fs.Bool("verify", true, "check allocation invariants and differential semantics on every realized version")
	lintFlag := fs.String("lint", "strict", "static-analysis gate: strict (reject on errors) or off")
	optFlag := fs.Bool("opt", false, "run the pressure-reducing middle end before allocation")
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

	fmt.Printf("orion-bench: scale %.3f, experiments: %s\n\n", *scale, strings.Join(selected, ", "))
	for _, id := range selected {
		e, err := s.ByID(strings.TrimSpace(id))
		if err != nil {
			return err
		}
		start := time.Now()
		tbl, err := e.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		tbl.AddNote("wall time %s", time.Since(start).Round(time.Millisecond))
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
		core.PublishCacheMetrics(col.Metrics())
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
