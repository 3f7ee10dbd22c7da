// Command benchmark is the repository's benchmark: six workloads over the
// Orion pipeline, the end-to-end metrics a user of it sees, and a traced
// run that attributes them to layers. README.md in this directory says
// what each workload and metric is for; BENCHMARK.json at the root of the
// repository is the contract with the regression gate.
//
//	bash benchmark/run.sh --workload tune_cold --seed 1 --seconds 12 --trace 0
//	bash benchmark/run.sh -seed 1 [-trace 1] [-out results.json]
//	bash benchmark/run.sh diff old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "diff" {
		os.Exit(diffMain(os.Args[2:]))
	}
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	workload := fs.String("workload", "", "run this one workload in this process (default: every workload, each in a child process)")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 0, "how long one run measures (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1: the traced run, which prints the per-layer metrics")
	quick := fs.Bool("quick", false, "smoke-test sizes: 2 generated programs, tiny grids, 40 requests, one pass")
	out := fs.String("out", "", "full run: where to write the results file (default .bench_build/results-seed<N>.json)")
	detail := fs.String("detail", "", "one workload: also write the run's full result as JSON here")
	_ = fs.Parse(os.Args[1:])
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		os.Exit(2)
	}

	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0, sizes: fullSizes}
	if *quick {
		cfg.sizes = quickSizes
	}
	if cfg.seconds <= 0 {
		sp, err := loadSpec()
		if err != nil {
			fatal(err)
		}
		cfg.seconds = float64(sp.RunSeconds)
		if *quick {
			cfg.seconds = 0.1
		}
	}

	if cfg.workload == "" {
		if err := fullRun(cfg, *quick, *out); err != nil {
			fatal(err)
		}
		return
	}
	if cfg.trace {
		cfg.tracePath = fmt.Sprintf(".bench_build/trace-%s-seed%d.json", cfg.workload, cfg.seed)
	}
	res, err := runWorkload(cfg)
	if err != nil {
		fatal(err)
	}
	if *detail != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = os.WriteFile(*detail, data, 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	printRun(res)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// printRun prints every metric of a run by name with its unit, then, as
// the last line, the one JSON object the regression gate reads.
func printRun(res *result) {
	printResult(res)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for name, s := range res.Metrics {
		metrics[name] = value{s.Value, s.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}
