package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/sa"
)

// withProcs runs fn with GOMAXPROCS set to n. The previous value comes back
// through a defer, so a t.Fatal inside fn cannot leave later tests of the
// binary on one P (where par runs inline and parallel coverage is lost).
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// compileCounters are the obs counters a compile must report identically
// however its task graph was scheduled.
var compileCounters = []string{
	"sa.checks", "verify.checks", "verify.reference_runs", "verify.differential_runs",
	"compile.realizations", "ladder.recolor",
	"regalloc.rounds", "regalloc.simplify_scans", "regalloc.select_visits",
}

// compileRecord is everything observable about one compile: the fat
// binary (or the error), the counters, and the span tree in record order
// without timestamps.
type compileRecord struct {
	out      string
	counters []uint64
	spans    []string
}

func recordCompile(t *testing.T, p *isa.Program, d *device.Device, cc device.CacheConfig) compileRecord {
	t.Helper()
	r := NewCaches().NewRealizer(d, cc) // every compile realizes for itself
	r.Obs = obs.New()
	var rec compileRecord
	// A clone carries no derived state (the input's analysis is memoized on
	// the program), so every compile does the same work.
	if cr, err := r.Compile(p.Clone(), true); err != nil {
		rec.out = "error: " + err.Error()
	} else {
		rec.out = string(EncodeFat(cr))
	}
	m := r.Obs.Metrics()
	for _, name := range compileCounters {
		rec.counters = append(rec.counters, m.Counter(name).Value())
	}
	rec.spans = spanTree(t, r.Obs)
	return rec
}

// spanTree renders each recorded span as "name <- parent {attrs}" from the
// Chrome trace export, in record order; timestamps and tracks are dropped.
func spanTree(t *testing.T, c *obs.Collector) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	names := map[string]string{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			names[e.Args["span_id"]] = e.Name
		}
	}
	var out []string
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		var attrs []string
		for k, v := range e.Args {
			if k != "span_id" && k != "parent_id" {
				attrs = append(attrs, k+"="+v)
			}
		}
		sort.Strings(attrs)
		out = append(out, fmt.Sprintf("%s <- %s %v", e.Name, names[e.Args["parent_id"]], attrs))
	}
	return out
}

// TestCompileDeterminismSerialVsParallel pins the compile task graph's
// contract: overlapping lint, Prepare, the oracle's reference, each
// version's two gates and the original's gates with the candidate fan-out
// changes when work runs, never what it produces. Every suite kernel on
// both devices and cache configurations, every realizable fuzz-corpus
// program, the retry and shared-lint inputs and four random programs
// compile on a fresh owner each on one P and on several, to the same
// fat binary or error, the same counters and the same span tree.
func TestCompileDeterminismSerialVsParallel(t *testing.T) {
	type input struct {
		name string
		p    *isa.Program
		ccs  []device.CacheConfig
	}
	both := []device.CacheConfig{device.SmallCache, device.LargeCache}
	var inputs []input
	ks, err := kernels.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ks {
		inputs = append(inputs, input{k.Name, k.Prog, both})
	}
	for i, p := range corpusPrograms(t) {
		inputs = append(inputs, input{fmt.Sprintf("corpus%d", i), p, both[:1]})
	}
	inputs = append(inputs, input{"retry_meets_level", retryMeetsLevel(t), both})
	// hotspot with 512 more bytes of shared memory: on the GTX680 with the
	// small cache, levels 56 and 64 start from different budget pairs (32
	// registers, 4 and 3 shared slots) and allocate one binary, which the
	// ladder interns, so two groups' gates lint one program side by side.
	hs, err := kernels.ByName("hotspot")
	if err != nil {
		t.Fatal(err)
	}
	sharedLint := hs.Prog.Clone()
	sharedLint.SharedBytes += 512
	inputs = append(inputs, input{"shared_lint", sharedLint, both[:1]})
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < 4; i++ {
		inputs = append(inputs, input{fmt.Sprintf("random%d", i), randomProgram(rng), both[:1]})
	}
	if testing.Short() {
		inputs = inputs[:3]
	}

	procs := max(runtime.GOMAXPROCS(0), 2)
	for _, in := range inputs {
		for _, d := range device.Both() {
			for _, cc := range in.ccs {
				name := fmt.Sprintf("%s on %s/%v", in.name, d.Name, cc)
				var serial, parallel compileRecord
				withProcs(1, func() { serial = recordCompile(t, in.p, d, cc) })
				withProcs(procs, func() { parallel = recordCompile(t, in.p, d, cc) })
				if serial.out != parallel.out {
					t.Errorf("%s: output differs serial vs parallel", name)
				}
				for i, c := range compileCounters {
					if serial.counters[i] != parallel.counters[i] {
						t.Errorf("%s: %s = %d serial, %d parallel", name, c, serial.counters[i], parallel.counters[i])
					}
				}
				if got, want := strings.Join(parallel.spans, "\n"), strings.Join(serial.spans, "\n"); got != want {
					t.Errorf("%s: span tree differs serial vs parallel:\n--- serial ---\n%s\n--- parallel ---\n%s", name, want, got)
				}
			}
		}
	}
}

// waitGoroutines polls until the goroutine count is back to base, so a
// fork that outlived Compile fails the test instead of leaking.
func waitGoroutines(t *testing.T, what string, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Errorf("%s: %d goroutines after Compile, %d before", what, runtime.NumGoroutine(), base)
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCompileErrorPrecedence pins the task graph's error order on one P
// and on two: lint's rejection of the input wins over everything that ran
// beside it (Prepare, the reference), an infeasible original is reported
// as the original version's failure, and turning the gates off changes no
// binary that compiles either way.
func TestCompileErrorPrecedence(t *testing.T) {
	// Every compile gets a clone and a fresh owner: the input's analysis is
	// memoized on the program and its realization on the owner, and a memo
	// hit would leave lint nothing to run beside, or the gated and ungated
	// compiles one realization.
	defects, err := kernels.Defects()
	if err != nil {
		t.Fatal(err)
	}
	infeasible := isa.MustParse(`.kernel K
.blockdim 64
.shared 60000
.func main
  RDSP v0, WARPID
  STG [v0+0], v0
  EXIT
`)
	ks, err := kernels.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2} {
		withProcs(procs, func() {
			d := device.GTX680()
			rejected := 0
			for _, dk := range defects {
				diags := sa.Analyze(dk.Prog)
				if sa.CountErrors(diags) == 0 {
					continue
				}
				rejected++
				base := runtime.NumGoroutine()
				_, err := NewCaches().NewRealizer(d, device.SmallCache).Compile(dk.Prog.Clone(), true)
				waitGoroutines(t, dk.Name, base)
				var ae *AnalysisError
				if !errors.As(err, &ae) || ae.TargetWarps != 0 {
					t.Errorf("procs=%d %s: Compile = %v, want the input's *AnalysisError", procs, dk.Name, err)
					continue
				}
				want := (&AnalysisError{Kernel: dk.Prog.Name, Diags: diags}).Error()
				if err.Error() != want {
					t.Errorf("procs=%d %s: error %q, want %q", procs, dk.Name, err, want)
				}
			}
			if rejected < 2 {
				t.Errorf("procs=%d: only %d defect kernels have error-severity findings", procs, rejected)
			}

			base := runtime.NumGoroutine()
			_, err := NewCaches().NewRealizer(d, device.SmallCache).Compile(infeasible.Clone(), true)
			waitGoroutines(t, "infeasible", base)
			var inf *ErrInfeasible
			if !errors.As(err, &inf) || !strings.HasPrefix(err.Error(), "compile K: original version: ") {
				t.Errorf("procs=%d: infeasible original: Compile = %v, want compile K: original version: *ErrInfeasible", procs, err)
			}

			for _, k := range ks {
				base := runtime.NumGoroutine()
				on, errOn := NewCaches().NewRealizer(d, device.SmallCache).Compile(k.Prog.Clone(), true)
				off := NewCaches().NewRealizer(d, device.SmallCache)
				off.Verify, off.Lint = false, LintOff
				plain, errOff := off.Compile(k.Prog.Clone(), true)
				waitGoroutines(t, k.Name, base)
				if errOn != nil || errOff != nil {
					continue
				}
				if !bytes.Equal(EncodeFat(on), EncodeFat(plain)) {
					t.Errorf("procs=%d %s: gates off changed the fat binary", procs, k.Name)
				}
			}
		})
	}
}
