package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// environment is the fingerprint every results file carries, so that two
// files are only ever compared knowing what differed around them.
type environment struct {
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"git_commit"` // from run.sh; "unknown" outside a git checkout
	Race       bool    `json:"race_detector"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"run_seconds"`
	Sizes      sizes   `json:"sizes"`
}

func fingerprint(cfg config) environment {
	env := environment{
		CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown", Race: raceEnabled,
		Seed: cfg.seed, Seconds: cfg.seconds, Sizes: cfg.sizes,
	}
	if c := os.Getenv("ORION_BENCH_COMMIT"); c != "" {
		env.Commit = c
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// resultsFile is what the full run writes and `diff` reads.
type resultsFile struct {
	Schema    string             `json:"schema"`
	Env       environment        `json:"environment"`
	Workloads map[string]*runSet `json:"workloads"`
}

// runSet is one workload's untraced run and, with -trace 1, its traced run.
type runSet struct {
	EndToEnd *result `json:"end_to_end"`
	PerLayer *result `json:"per_layer,omitempty"`
}

const resultsSchema = "orion-benchmark/1"

// fullRun runs every workload, each in a fresh child process of this
// binary: the program under test keeps process-wide memo caches, simulator
// totals and validator counters, and a child per workload keeps those and
// the peak resident set apart.
func fullRun(cfg config, quick bool, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	if out == "" {
		out = fmt.Sprintf(".bench_build/results-seed%d.json", cfg.seed)
	}
	file := resultsFile{Schema: resultsSchema, Env: fingerprint(cfg), Workloads: map[string]*runSet{}}
	child := func(workload string, trace int) (*result, error) {
		detail := fmt.Sprintf(".bench_build/detail-%d.json", os.Getpid())
		defer os.Remove(detail)
		args := []string{"--workload", workload, "--seed", fmt.Sprint(cfg.seed), "--seconds", fmt.Sprint(cfg.seconds),
			"--trace", fmt.Sprint(trace), "--detail", detail}
		if quick {
			args = append(args, "--quick")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s (trace %d): %w", workload, trace, err)
		}
		data, err := os.ReadFile(detail)
		if err != nil {
			return nil, err
		}
		var res result
		return &res, json.Unmarshal(data, &res)
	}
	failed := 0
	for _, name := range workloadNames {
		set := &runSet{}
		if set.EndToEnd, err = child(name, 0); err != nil {
			return err
		}
		printResult(set.EndToEnd)
		failed += set.EndToEnd.Failed
		if cfg.trace {
			if set.PerLayer, err = child(name, 1); err != nil {
				return err
			}
			printResult(set.PerLayer)
			failed += set.PerLayer.Failed
		}
		file.Workloads[name] = set
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("results written to %s\n", out)
	if failed > 0 {
		return fmt.Errorf("%d operations or output checks failed", failed)
	}
	return nil
}

// printResult prints a child's metrics, one per line, with the name the
// issue used for the same quantity where it had one.
func printResult(res *result) {
	kind := "end to end"
	if res.Traced {
		kind = "per layer"
	}
	fmt.Printf("%s (%s): %d passes, fail_ratio %d/%d, host slowdown %.2fx (times are corrected for it)\n",
		res.Workload, kind, res.Passes, res.Failed, res.Attempted, res.HostSlowdown)
	for _, msg := range res.Failures {
		fmt.Println("  FAILED:", msg)
	}
	for _, name := range sortedKeys(res.Metrics) {
		s := res.Metrics[name]
		line := fmt.Sprintf("  %-36s %14.6g %-9s", name, s.Value, s.Unit)
		if s.N > 1 {
			line += fmt.Sprintf(" q1 %.6g q3 %.6g min %.6g max %.6g n %d", s.Q1, s.Q3, s.Min, s.Max, s.N)
		}
		if alias, ok := issueNames[[2]string{res.Workload, name}]; ok {
			line += "  (" + alias + ")"
		}
		fmt.Println(strings.TrimRight(line, " "))
	}
}

// diffMain implements `diff old.json new.json`: one row per workload and
// end-to-end metric, judged against the metric's bound in BENCHMARK.json.
// It returns 1 when any row regressed.
func diffMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark diff old.json new.json")
		return 2
	}
	sp, err := loadSpec()
	var files [2]resultsFile
	for i := 0; err == nil && i < 2; i++ {
		var data []byte
		if data, err = os.ReadFile(args[i]); err == nil {
			err = json.Unmarshal(data, &files[i])
		}
		if err == nil && files[i].Schema != resultsSchema {
			err = fmt.Errorf("%s: schema %q, want %q", args[i], files[i].Schema, resultsSchema)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark diff:", err)
		return 2
	}
	old, new := files[0], files[1]
	if old.Env.CPU != new.Env.CPU || old.Env.GOMAXPROCS != new.Env.GOMAXPROCS || old.Env.Seconds != new.Env.Seconds || old.Env.Sizes != new.Env.Sizes {
		fmt.Printf("note: the two files were not measured alike (%s x%d %gs vs %s x%d %gs)\n",
			old.Env.CPU, old.Env.GOMAXPROCS, old.Env.Seconds, new.Env.CPU, new.Env.GOMAXPROCS, new.Env.Seconds)
	}
	fmt.Printf("%-17s %-16s %14s %14s %8s %8s %7s  %s\n", "workload", "metric", "old", "new", "change", "spread", "bound", "verdict")
	regressed := false
	for _, name := range workloadNames {
		o, n := old.Workloads[name], new.Workloads[name]
		if o == nil || n == nil || o.EndToEnd == nil || n.EndToEnd == nil {
			continue
		}
		for _, m := range sp.EndToEnd {
			a, b := o.EndToEnd.Metrics[m.Name], n.EndToEnd.Metrics[m.Name]
			v := judge(a, b, m)
			regressed = regressed || v == "regressed"
			fmt.Printf("%-17s %-16s %14.6g %14.6g %+7.2f%% %7.2f%% %6.0f%%  %s\n", name, m.Name, a.Value, b.Value,
				100*(b.Value-a.Value)/a.Value, 100*max(a.Spread, b.Spread), 100*m.Bound, v)
		}
		if o.EndToEnd.Failed+n.EndToEnd.Failed > 0 {
			regressed = regressed || n.EndToEnd.Failed > o.EndToEnd.Failed
			fmt.Printf("%-17s %-16s %14d %14d  failed operations or checks\n", name, "fail_ratio", o.EndToEnd.Failed, n.EndToEnd.Failed)
		}
		if o.PerLayer != nil && n.PerLayer != nil {
			for _, key := range sortedKeys(n.PerLayer.Metrics) {
				a, b := o.PerLayer.Metrics[key], n.PerLayer.Metrics[key]
				if simulated(key) && a.Value != b.Value {
					fmt.Printf("%-17s %-36s %14.6g -> %-14.6g simulated count moved\n", name, key, a.Value, b.Value)
				}
			}
		}
	}
	if regressed {
		return 1
	}
	return 0
}

// judge compares one metric across two files. A timing is regressed when
// the new median is worse than the old by more than the bound, and
// unresolved when it is not but either file's own spread is wider than the
// bound, so that the files could not have shown a regression of that size.
// An exact (simulated) value has no spread: any worsening beyond the bound
// is a regression and any other movement is reported as moved.
func judge(old, new sample, m metricSpec) string {
	worse := (new.Value - old.Value) / old.Value
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > m.Bound:
		return "regressed"
	case old.Exact && new.Exact && new.Value != old.Value:
		return "ok (moved)"
	case max(old.Spread, new.Spread) > m.Bound:
		return "unresolved"
	}
	return "ok"
}

// simulated reports whether a per-layer metric is a simulated count, which
// must be bit-identical between two runs of one commit and across any
// change that only makes the host faster.
func simulated(name string) bool {
	for _, prefix := range []string{"sim.launches", "sim.instructions", "sim.cycles", "sim.spill_instrs", "sim.l1_", "sim.l2_",
		"sim.dram_lines", "sim.stall_", "tv.checked", "tv.rejected", "tv.abstained", "core.ladder_", "core.fat_bytes",
		"core.tune_iterations", "core.static_spill_instrs", "core.select_speedup_opt_geomean", "core.oracle_gap_geomean",
		"opt.maxlive_delta", "regalloc.spill_webs", "interproc.moves", "sa.diagnostics"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

func sortedKeys(m map[string]sample) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
