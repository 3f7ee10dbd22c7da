package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestSmoke runs every workload at -quick sizes (2 generated programs,
// tiny grids, 40 requests, one pass), untraced and traced, and checks the
// benchmark against its contract: every name in BENCHMARK.json is printed
// with its unit, nothing else is, no operation or output check fails, and
// names keep to letters, digits, '_', '.' and '-'.
func TestSmoke(t *testing.T) {
	// Run from the root of the repository, as run.sh does, so that scratch
	// files land in its .bench_build.
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec{}, sp.EndToEnd...), sp.PerLayer...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("BENCHMARK.json: bad or repeated metric %q (unit %q)", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
	if len(sp.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(sp.Workloads), len(workloadNames))
	}

	for i, w := range sp.Workloads {
		if w.Name != workloadNames[i] || !name.MatchString(w.Name) {
			t.Fatalf("workload %d is %q in BENCHMARK.json and %q in the program", i, w.Name, workloadNames[i])
		}
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w.Name, seed: 1, seconds: 0.1, trace: traced, sizes: quickSizes}
			want := sp.EndToEnd
			if traced {
				want = sp.PerLayer
				cfg.tracePath = filepath.Join(t.TempDir(), "trace.json")
			}
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d failed: %v", w.Name, traced, res.Failed, res.Attempted, res.Failures)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: printed %d metrics, BENCHMARK.json lists %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s [%s] printed as %+v", w.Name, traced, m.Name, m.Unit, got)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", w.Name, m.Name, got.Value)
				}
			}
			if traced {
				data, err := os.ReadFile(cfg.tracePath)
				var trace struct {
					TraceEvents []json.RawMessage `json:"traceEvents"`
				}
				if err == nil {
					err = json.Unmarshal(data, &trace)
				}
				if err != nil || len(trace.TraceEvents) == 0 {
					t.Errorf("%s: Chrome trace unreadable or empty: %v", w.Name, err)
				}
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, _, q3 = quartiles([]float64{3, 1})
	if q1 != 0.5 || q3 != 3.5 {
		t.Errorf("quartiles(1,3) = %v .. %v, want 0.5 .. 3.5", q1, q3)
	}
}

// TestJudge covers the three verdicts of `diff`.
func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "pass_s", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "speedup_geomean", Better: "higher", Bound: 0.01}
	for _, c := range []struct {
		old, new sample
		m        metricSpec
		want     string
	}{
		{sample{Value: 1, Spread: 0.02}, sample{Value: 1.05, Spread: 0.02}, lower, "ok"},
		{sample{Value: 1, Spread: 0.02}, sample{Value: 1.2, Spread: 0.02}, lower, "regressed"},
		{sample{Value: 1, Spread: 0.3}, sample{Value: 1.05, Spread: 0.02}, lower, "unresolved"},
		{exact(1.04, "x"), exact(1.0, "x"), higher, "regressed"},
		{exact(1.04, "x"), exact(1.05, "x"), higher, "ok (moved)"},
		{exact(1.04, "x"), exact(1.04, "x"), higher, "ok"},
	} {
		if got := judge(c.old, c.new, c.m); got != c.want {
			t.Errorf("judge(%v -> %v, %s) = %q, want %q", c.old.Value, c.new.Value, c.m.Name, got, c.want)
		}
	}
}
