package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestProfileOutputShape is the golden test for `orion profile`: the
// report must open with the cycle count, include the stall breakdown,
// and render the timeline with its header and legend lines.
func TestProfileOutputShape(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"profile", "-kernel", "bfs", "-warps", "32"}, &buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	lines := strings.Split(got, "\n")
	if !regexp.MustCompile(`^bfs at 32 warps/SM on .+: \d+ cycles$`).MatchString(lines[0]) {
		t.Errorf("header line = %q", lines[0])
	}
	if !regexp.MustCompile(`(?m)^stalls \(warp-cycles\): mem \d+, alu \d+, barrier \d+, mshr \d+$`).MatchString(got) {
		t.Errorf("missing stall breakdown in:\n%s", got)
	}
	if !regexp.MustCompile(`(?m)^timeline: \d+ cycles across \d+ columns \(\d+ cycles/column\)$`).MatchString(got) {
		t.Errorf("missing timeline header in:\n%s", got)
	}
	const legend = "legend: '#' dense issue, '+' medium, '.' sparse, 'M' memory-dominated, ' ' stalled"
	if !strings.Contains(got, legend) {
		t.Errorf("missing legend line in:\n%s", got)
	}
	// One timeline row per traced warp ("w NN |...|").
	if rows := regexp.MustCompile(`(?m)^w\d+\s+\|`).FindAllString(got, -1); len(rows) == 0 {
		t.Errorf("no per-warp timeline rows in:\n%s", got)
	}
}

// TestTuneExplain checks the -explain report: one line per runtime
// iteration with the level, measured time, slowdown, and rationale,
// then the convergence line matching the selected occupancy.
func TestTuneExplain(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"tune", "-kernel", "bfs", "-explain"}, &buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !strings.Contains(got, "tuning decisions:") {
		t.Fatalf("missing decision log in:\n%s", got)
	}
	iterRe := regexp.MustCompile(`(?m)^  iter\s+(\d+):\s+(\d+) warps/SM,\s+[\d.]+ cycles/unit,\s+[+-][\d.]+% vs best -> (accept|reject): (.+)$`)
	iters := iterRe.FindAllStringSubmatch(got, -1)
	if len(iters) == 0 {
		t.Fatalf("no iteration lines in:\n%s", got)
	}
	for _, m := range iters {
		if m[4] == "" {
			t.Errorf("iteration %s has an empty reason", m[1])
		}
	}
	selRe := regexp.MustCompile(`selected (\d+) warps/SM`)
	sel := selRe.FindStringSubmatch(got)
	if sel == nil {
		t.Fatalf("missing selection line in:\n%s", got)
	}
	if want := fmt.Sprintf("converged on %s warps/SM", sel[1]); !strings.Contains(got, want) {
		t.Errorf("missing %q in:\n%s", want, got)
	}
}

// TestTuneTraceAndMetricsArtifacts is the acceptance check for the
// observability exports: `orion tune -trace -metrics` must write a valid
// Chrome trace with compile-phase, tuner-iteration, and simulation spans
// and a metrics snapshot that includes the memo-cache counters.
func TestTuneTraceAndMetricsArtifacts(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.json")
	var buf bytes.Buffer
	if err := run([]string{"tune", "-kernel", "srad", "-trace", tracePath, "-metrics", metricsPath}, &buf); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
			Dur   float64 `json:"dur"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if trace.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", trace.DisplayTimeUnit)
	}
	spans := map[string]int{}
	for _, ev := range trace.TraceEvents {
		if ev.Phase == "X" {
			spans[ev.Name]++
			if ev.Dur < 0 {
				t.Errorf("span %q has negative duration %v", ev.Name, ev.Dur)
			}
		}
	}
	for _, want := range []string{"decode", "compile", "realize", "regalloc", "tune", "tune-iter"} {
		if spans[want] == 0 {
			t.Errorf("trace has no %q span; spans = %v", want, spans)
		}
	}
	if spans["simulate"]+spans["simulate.cached"] == 0 {
		t.Errorf("trace has no simulation spans; spans = %v", spans)
	}

	data, err = os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var metrics struct {
		Counters map[string]uint64  `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
	}
	if err := json.Unmarshal(data, &metrics); err != nil {
		t.Fatalf("metrics is not valid JSON: %v", err)
	}
	for _, want := range []string{
		"compile.kernels", "compile.realizations",
		"core.realize_cache.hits", "core.realize_cache.misses",
		"core.run_cache.hits", "core.run_cache.misses",
		"tune.iterations",
		"regalloc.rounds", "regalloc.simplify_scans", "regalloc.select_visits",
	} {
		if _, ok := metrics.Counters[want]; !ok {
			t.Errorf("metrics missing counter %q; have %v", want, metrics.Counters)
		}
	}
	if _, ok := metrics.Gauges["tune.selected_warps"]; !ok {
		t.Errorf("metrics missing gauge tune.selected_warps; have %v", metrics.Gauges)
	}
}

// TestListAndUnknownSubcommand covers the trivial dispatch paths.
func TestListAndUnknownSubcommand(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"list"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "bfs") {
		t.Errorf("list output missing bfs:\n%s", buf.String())
	}
	if err := run([]string{"frobnicate"}, &buf); err == nil {
		t.Error("unknown subcommand did not error")
	}
}

// TestLintCleanKernel is the golden test for `orion lint` on a clean
// kernel: exactly the clean line, exit success.
func TestLintCleanKernel(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"lint", "-kernel", "FDTD3d"}, &buf); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "lint FDTD3d: clean\n"; got != want {
		t.Errorf("output = %q, want %q", got, want)
	}
}

// TestLintRealizedLadder checks the -realized walk: one clean line for
// the input plus one per realizable occupancy level.
func TestLintRealizedLadder(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"lint", "-kernel", "matrixMul", "-realized"}, &buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !strings.HasPrefix(got, "lint matrixMul: clean\n") {
		t.Errorf("missing input clean line in:\n%s", got)
	}
	levels := regexp.MustCompile(`(?m)^lint matrixMul@(\d+): clean$`).FindAllString(got, -1)
	if len(levels) < 2 {
		t.Errorf("expected clean lines for multiple realized levels, got:\n%s", got)
	}
	if strings.Contains(got, "finding") {
		t.Errorf("clean ladder reported findings:\n%s", got)
	}
}

// TestLintDefectKernel is the golden test for the failure side: the
// diagnostic line with its code, the summary, and a nonzero exit.
func TestLintDefectKernel(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"lint", "-file", filepath.Join("..", "..", "internal", "kernels", "testdata", "defects", "shared_race.oasm")}, &buf)
	if err == nil {
		t.Fatal("lint of a racing kernel did not fail")
	}
	got := buf.String()
	if !regexp.MustCompile(`(?m)^lint shared_race: SA-RACE error main\[\d+\] block \d+: .+$`).MatchString(got) {
		t.Errorf("missing SA-RACE diagnostic line in:\n%s", got)
	}
	if !regexp.MustCompile(`(?m)^1 finding \(1 error\)$`).MatchString(got) {
		t.Errorf("missing summary line in:\n%s", got)
	}
}

// TestCompileLintGate: `orion compile` on a defect kernel must fail under
// the default strict gate and pass with -lint=off.
func TestCompileLintGate(t *testing.T) {
	defect := filepath.Join("..", "..", "internal", "kernels", "testdata", "defects", "divergent_barrier.oasm")
	var buf bytes.Buffer
	err := run([]string{"compile", "-file", defect}, &buf)
	if err == nil || !strings.Contains(err.Error(), "SA-BAR-DIV") {
		t.Errorf("strict compile error = %v, want SA-BAR-DIV rejection", err)
	}
	buf.Reset()
	if err := run([]string{"compile", "-file", defect, "-lint", "off", "-verify=false"}, &buf); err != nil {
		t.Errorf("compile -lint=off = %v, want success", err)
	}
}

// TestLaneVariantCallRejectedAtLoad: a kernel that reads LANEID and calls
// a function is bad input to every subcommand, not a simulator fault three
// stages later.
func TestLaneVariantCallRejectedAtLoad(t *testing.T) {
	file := filepath.Join(t.TempDir(), "lanecall.oasm")
	src := ".kernel lanecall\n.blockdim 32\n.func main\n  RDSP v0, LANEID\n  CALL v1, f, v0\n  STG [v0], v1\n  EXIT\n.func f args 1 ret\n  RET v0\n"
	if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"lint", "-file", file},
		{"build", "-file", file, "-o", filepath.Join(t.TempDir(), "k.ofat")},
		{"tune", "-file", file},
	} {
		var buf bytes.Buffer
		err := run(args, &buf)
		if err == nil || !strings.Contains(err.Error(), "main[1]: CALL in a kernel that reads LANEID") {
			t.Errorf("orion %s: error = %v (output %q), want the isa.Validate rejection", args[0], err, buf.String())
		}
	}
}

// TestProfileHotSpots is the golden test for the PC-level half of
// `orion profile`: the hot-spot table with issue counts and stall
// attribution, appended after the timeline, with spill sites resolved
// to named webs on a spill-heavy kernel.
func TestProfileHotSpots(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"profile", "-kernel", "hotspot", "-warps", "64"}, &buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !regexp.MustCompile(`(?m)^profile: \d+ instructions in \d+ cycles \(ipc [\d.]+\)$`).MatchString(got) {
		t.Errorf("missing profile summary line in:\n%s", got)
	}
	if !regexp.MustCompile(`(?m)^occupancy decision: 64 warps/SM colored at \d+ regs/thread$`).MatchString(got) {
		t.Errorf("missing occupancy decision line in:\n%s", got)
	}
	if !strings.Contains(got, "hot spots (top ") {
		t.Errorf("missing hot-spot table header in:\n%s", got)
	}
	rows := regexp.MustCompile(`(?m)^  \d+\s+\S+\+\d+\s+\d+\s+\d+\s+\d+\s+\d+\s+\d+  `).FindAllString(got, -1)
	if len(rows) == 0 {
		t.Errorf("no hot-spot rows in:\n%s", got)
	}
	// hotspot at 64 warps/SM spills; the web attribution section must
	// name the webs and their storage.
	if !strings.Contains(got, "spill-web attribution:") {
		t.Fatalf("missing spill-web attribution in:\n%s", got)
	}
	if !regexp.MustCompile(`(?m)^  \S+/web\d+\.r\d+\s+(shared|local)\[\d+(\.\.\d+)?\]\s+issues \d+\s+stall-cycles \d+$`).MatchString(got) {
		t.Errorf("no resolved web line in:\n%s", got)
	}
}

// TestProfileJSONArtifact checks the -json report: schema fields,
// internally consistent hot spots, and named spill webs.
func TestProfileJSONArtifact(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "profile.json")
	var buf bytes.Buffer
	if err := run([]string{"profile", "-kernel", "hotspot", "-warps", "64", "-json", jsonPath}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Kernel      string `json:"kernel"`
		Device      string `json:"device"`
		Backend     string `json:"backend"`
		TargetWarps int    `json:"target_warps"`
		GridWarps   int    `json:"grid_warps"`
		RegBudget   int    `json:"reg_budget"`
		Cycles      uint64 `json:"cycles"`
		Stalls      struct {
			Mem uint64 `json:"mem"`
		} `json:"stalls"`
		Interval uint64 `json:"interval"`
		Tracks   []struct {
			Name   string    `json:"name"`
			Points []float64 `json:"points"`
		} `json:"tracks"`
		HotSpots []struct {
			PC         int    `json:"pc"`
			Text       string `json:"text"`
			Issues     uint64 `json:"issues"`
			StallTotal uint64 `json:"stall_total"`
		} `json:"hot_spots"`
		Webs []struct {
			Name        string `json:"name"`
			StallCycles uint64 `json:"stall_cycles"`
		} `json:"webs"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("profile artifact is not valid JSON: %v", err)
	}
	if rep.Kernel != "hotspot" || rep.TargetWarps != 64 || rep.Backend == "" {
		t.Errorf("identity fields = %q/%d/%q", rep.Kernel, rep.TargetWarps, rep.Backend)
	}
	if rep.Cycles == 0 || rep.RegBudget == 0 || rep.GridWarps == 0 {
		t.Errorf("summary fields = %d cycles, %d regs, %d grid", rep.Cycles, rep.RegBudget, rep.GridWarps)
	}
	if len(rep.HotSpots) == 0 || rep.HotSpots[0].Text == "" || rep.HotSpots[0].Issues == 0 {
		t.Errorf("hot spots = %+v", rep.HotSpots)
	}
	if len(rep.Webs) == 0 || rep.Webs[0].Name == "" {
		t.Errorf("webs = %+v", rep.Webs)
	}
	if rep.Interval == 0 || len(rep.Tracks) == 0 {
		t.Errorf("tracks = interval %d, %d tracks", rep.Interval, len(rep.Tracks))
	}
	for _, tr := range rep.Tracks {
		if len(tr.Points) == 0 {
			t.Errorf("track %s has no points", tr.Name)
		}
	}
}

// TestProfileTraceCounters: with -trace, the profiled run's sampled
// counters export as Chrome "C" events next to the span tracks.
func TestProfileTraceCounters(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	var buf bytes.Buffer
	if err := run([]string{"profile", "-kernel", "bfs", "-warps", "32", "-trace", tracePath}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    float64        `json:"ts"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	counters := map[string]int{}
	sawSpan := false
	for _, ev := range trace.TraceEvents {
		switch ev.Phase {
		case "C":
			counters[ev.Name]++
			if _, ok := ev.Args["value"]; !ok {
				t.Errorf("counter %q sample has no value arg", ev.Name)
			}
		case "X":
			sawSpan = true
		}
	}
	if !sawSpan {
		t.Error("trace has no span events")
	}
	for _, want := range []string{
		"sim.resident_warps (warps)", "sim.instructions (instrs)",
		"sim.ipc (instrs/cycle)", "sim.mshr_pending (entries)",
	} {
		if counters[want] == 0 {
			t.Errorf("trace has no %q counter samples; counters = %v", want, counters)
		}
	}
}

// TestTuneExplainProfile: -explain appends the winner's hot-spot report
// after the decision log.
func TestTuneExplainProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"tune", "-kernel", "hotspot", "-explain"}, &buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	decisions := strings.Index(got, "tuning decisions:")
	profile := strings.Index(got, "profile: ")
	if decisions < 0 || profile < 0 || profile < decisions {
		t.Fatalf("profile report not appended after decisions in:\n%s", got)
	}
	if !strings.Contains(got, "hot spots (top ") {
		t.Errorf("missing hot-spot table in:\n%s", got)
	}
	if !regexp.MustCompile(`(?m)^occupancy decision: \d+ warps/SM colored at \d+ regs/thread$`).MatchString(got) {
		t.Errorf("missing occupancy decision line in:\n%s", got)
	}
}

// TestProfileOutputGolden pins the profiler's output byte for byte: the
// -json report of hotspot (counter tracks included), the stdout of a cfd
// run on the C2075 long enough for every SM to double its sampling
// interval several times, and `tune -explain`'s decision log and profile.
// The goldens were written when the CLI sized the track interval from an
// extra unprofiled run; the simulator's own interval must reproduce them.
func TestProfileOutputGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
		json   bool // compare the -json file instead of stdout
	}{
		{"profile_hotspot_64.json.golden", []string{"profile", "-kernel", "hotspot", "-warps", "64"}, true},
		{"profile_cfd_c2075_32.golden", []string{"profile", "-kernel", "cfd", "-device", "c2075", "-warps", "32"}, false},
		{"tune_srad_explain.golden", []string{"tune", "-kernel", "srad", "-explain"}, false},
	} {
		args := tc.args
		jsonPath := filepath.Join(t.TempDir(), "out.json")
		if tc.json {
			args = append(args, "-json", jsonPath)
		}
		var buf bytes.Buffer
		if err := run(args, &buf); err != nil {
			t.Fatalf("%s: %v", tc.golden, err)
		}
		got := buf.Bytes()
		if tc.json {
			var err error
			if got, err = os.ReadFile(jsonPath); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("orion %s differs from testdata/%s:\n%s", strings.Join(args, " "), tc.golden, got)
		}
	}
}

// TestProfileRunsOneSimulation: `orion profile` simulates its level once,
// with the profiler on; the simulator works out the track interval itself.
func TestProfileRunsOneSimulation(t *testing.T) {
	before := sim.SnapshotTotals()
	if err := run([]string{"profile", "-kernel", "bfs", "-warps", "32", "-grid", "64"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if n := sim.SnapshotTotals().Delta(before).Launches; n != 1 {
		t.Fatalf("orion profile ran %d simulations, want 1", n)
	}
}

// TestTuneFatRefusesOtherKernel: the launch, the report's labels and a
// -json report's fingerprint come from the -kernel/-file program, so a
// multi-version binary built from another program is refused before any
// tuning, with nothing printed: another kernel, and another program that
// carries the binary's kernel name. Built from the same program, it tunes.
func TestTuneFatRefusesOtherKernel(t *testing.T) {
	dir := t.TempDir()
	fat := filepath.Join(dir, "bfs.ofat")
	launch := []string{"-grid", "128", "-iters", "3"}
	if err := run(append([]string{"build", "-kernel", "bfs", "-o", fat}, launch...), io.Discard); err != nil {
		t.Fatal(err)
	}
	saxpy, err := os.ReadFile("../../examples/kernels/saxpy.oasm")
	if err != nil {
		t.Fatal(err)
	}
	fake := filepath.Join(dir, "fake.oasm")
	relabeled := regexp.MustCompile(`(?m)^\.kernel \S+`).ReplaceAll(saxpy, []byte(".kernel bfs"))
	if bytes.Equal(relabeled, saxpy) {
		t.Fatal("saxpy.oasm has no .kernel line to relabel")
	}
	if err := os.WriteFile(fake, relabeled, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, other := range [][]string{{"-kernel", "srad"}, {"-file", fake}} {
		var buf bytes.Buffer
		err := run(slices.Concat([]string{"tune", "-fat", fat}, other, launch), &buf)
		if err == nil || !strings.Contains(err.Error(), "built from another program (kernel bfs") {
			t.Fatalf("tune -fat bfs.ofat %v: error %v, output %q", other, err, buf.String())
		}
		if buf.Len() != 0 {
			t.Errorf("refused tune %v printed %q", other, buf.String())
		}
	}
	var buf bytes.Buffer
	if err := run(append([]string{"tune", "-fat", fat, "-kernel", "bfs"}, launch...), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "kernel bfs on GTX680") {
		t.Errorf("tune -fat bfs.ofat -kernel bfs printed %q", buf.String())
	}
}

// TestNegativeLaunchRejected: a negative -grid or -iters is refused before
// anything runs, as the daemon refuses ?grid= and ?iters= below 1; zero
// still means the kernel's own launch.
func TestNegativeLaunchRejected(t *testing.T) {
	for _, args := range [][]string{
		{"run", "-kernel", "srad", "-warps", "8", "-grid", "-5"},
		{"tune", "-kernel", "srad", "-iters", "-1"},
	} {
		var buf bytes.Buffer
		err := run(args, &buf)
		if err == nil || !strings.HasPrefix(err.Error(), "bad -") {
			t.Errorf("%v: error %v, want a bad -grid/-iters error", args, err)
		}
		if buf.Len() != 0 {
			t.Errorf("%v: refused command printed %q", args, buf.String())
		}
	}
}
