package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/store"
)

// testKernel is a small memory-bound kernel: fast to compile and tune,
// enough register pressure to produce several candidates.
const testKernel = `
.kernel srvk
.blockdim 256
.func main
  RDSP v0, WARPID
  MOVI v1, 12
  SHL v2, v0, v1
  MOVI v3, 0
  MOVI v4, 0
loop:
  IADD v5, v2, v3
  LDG v6, [v5]
  XOR v4, v4, v6
  MOVI v7, 128
  IADD v3, v3, v7
  MOVI v8, 2048
  ISET.LT v9, v3, v8
  CBR v9, loop
  STG [v2], v4
  EXIT
`

// laneCallKernel reads LANEID and calls a function: no executor can run it
// lane-accurately, so it is bad input (400), not a simulator fault (500).
const laneCallKernel = `
.kernel lanecall
.blockdim 32
.func main
  RDSP v0, LANEID
  CALL v1, f, v0
  STG [v0], v1
  EXIT
.func f args 1 ret
  RET v0
`

// bigSharedKernel declares more shared memory than either device has: no
// occupancy level is realizable, which is the kernel's fault (422).
const bigSharedKernel = `
.kernel big
.shared 60000
.blockdim 256
.func main
  RDSP v0, WARPID
  STG [v0], v0
  EXIT
`

// newTestServer starts a daemon over httptest. dir == "" runs storeless.
func newTestServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	var st *store.Store
	if dir != "" {
		var err error
		if st, err = store.Open(dir); err != nil {
			t.Fatal(err)
		}
	}
	s := New(Config{Store: st, Workers: 4, Queue: 64})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs
}

// post sends body to path and returns status, headers, and body.
func post(t *testing.T, base, path, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(base+path, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, data
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestTuneMatchesPipelineBytes is the daemon's core acceptance: the
// /v1/tune response must be byte-identical to the canonical report the
// one-shot pipeline produces for the same kernel and parameters.
func TestTuneMatchesPipelineBytes(t *testing.T) {
	_, hs := newTestServer(t, t.TempDir())
	code, hdr, got := post(t, hs.URL, "/v1/tune?grid=128&iters=4", testKernel)
	if code != http.StatusOK {
		t.Fatalf("tune = %d: %s", code, got)
	}
	if hdr.Get("X-Orion-Key") == "" {
		t.Error("missing X-Orion-Key header")
	}

	prog, err := isa.Parse(testKernel)
	if err != nil {
		t.Fatal(err)
	}
	dev := device.GTX680()
	rz := core.NewRealizer(dev, device.SmallCache)
	lc := core.Launch{GridWarps: 128, Iterations: 4}
	canTune := rz.CanTune(prog, lc)
	rep, err := rz.Tune(prog, lc)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{
		Kernel:  "srvk",
		Device:  dev.Name,
		Cache:   device.SmallCache.String(),
		Backend: sim.DefaultBackend().String(),
		Grid:    128,
		Iters:   4,
		Lint:    core.LintStrict.String(),
		Verify:  true,
	}
	want := EncodeReport(BuildReport(p, prog, dev, canTune, rep))
	if !bytes.Equal(got, want) {
		t.Errorf("serve response differs from pipeline report:\nserve: %s\npipeline: %s", got, want)
	}
}

// TestRestartServesIdenticalBytes: the same request against a fresh
// daemon on the same store directory — and against a binary-upload
// variant of the same kernel — returns the stored bytes.
func TestRestartServesIdenticalBytes(t *testing.T) {
	dir := t.TempDir()
	s1, hs1 := newTestServer(t, dir)
	code, hdr1, first := post(t, hs1.URL, "/v1/tune?grid=128&iters=4", testKernel)
	if code != http.StatusOK {
		t.Fatalf("cold tune = %d: %s", code, first)
	}
	if s1.cfg.Store.Stats().Puts == 0 {
		t.Fatal("cold tune did not persist anything")
	}

	// Second daemon, same store: warm from disk, byte-identical.
	s2, hs2 := newTestServer(t, dir)
	code, hdr2, second := post(t, hs2.URL, "/v1/tune?grid=128&iters=4", testKernel)
	if code != http.StatusOK {
		t.Fatalf("warm tune = %d: %s", code, second)
	}
	if !bytes.Equal(first, second) {
		t.Error("restarted daemon served different bytes")
	}
	if hdr1.Get("X-Orion-Key") != hdr2.Get("X-Orion-Key") {
		t.Error("restart changed the artifact key")
	}
	if s2.cfg.Store.Stats().Hits == 0 {
		t.Error("warm tune did not hit the store")
	}

	// The ORN1 binary encoding of the same program has the same content
	// fingerprint, so even a different upload format hits the same artifact.
	prog, err := isa.Parse(testKernel)
	if err != nil {
		t.Fatal(err)
	}
	code, _, third := post(t, hs2.URL, "/v1/tune?grid=128&iters=4", string(isa.Encode(prog)))
	if code != http.StatusOK {
		t.Fatalf("binary-body tune = %d: %s", code, third)
	}
	if !bytes.Equal(first, third) {
		t.Error("binary upload produced different bytes than text upload")
	}
}

// TestCompileReturnsDecodableFat: /v1/compile hands back a multi-version
// binary the runtime can decode, and /v1/artifact serves the same bytes.
func TestCompileReturnsDecodableFat(t *testing.T) {
	_, hs := newTestServer(t, t.TempDir())
	code, hdr, data := post(t, hs.URL, "/v1/compile?grid=128&iters=4", testKernel)
	if code != http.StatusOK {
		t.Fatalf("compile = %d: %s", code, data)
	}
	cr, err := core.DecodeFat(data)
	if err != nil {
		t.Fatalf("DecodeFat: %v", err)
	}
	if len(cr.Candidates) == 0 {
		t.Error("fat binary has no candidates")
	}
	key := hdr.Get("X-Orion-Key")
	if key == "" {
		t.Fatal("missing X-Orion-Key")
	}
	code, fetched := get(t, hs.URL+"/v1/artifact/fat/"+key)
	if code != http.StatusOK || !bytes.Equal(fetched, data) {
		t.Errorf("artifact fetch = %d, equal=%v", code, bytes.Equal(fetched, data))
	}
}

// TestSweepTable: the sweep endpoint returns one row per realizable
// occupancy level with simulated cycles, deterministically.
func TestSweepTable(t *testing.T) {
	_, hs := newTestServer(t, t.TempDir())
	code, _, data := post(t, hs.URL, "/v1/sweep?grid=64", testKernel)
	if code != http.StatusOK {
		t.Fatalf("sweep = %d: %s", code, data)
	}
	var rep SweepReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Levels) == 0 {
		t.Fatal("no sweep rows")
	}
	for _, row := range rep.Levels {
		if row.Cycles == 0 || row.TargetWarps == 0 {
			t.Errorf("degenerate row %+v", row)
		}
	}
	code, _, again := post(t, hs.URL, "/v1/sweep?grid=64", testKernel)
	if code != http.StatusOK || !bytes.Equal(data, again) {
		t.Error("repeat sweep not byte-identical")
	}
}

func TestBadRequests(t *testing.T) {
	_, hs := newTestServer(t, "")
	for name, req := range map[string]struct {
		path, body string
		want       int
	}{
		"no kernel":          {"/v1/tune", "", 400},
		"unknown device":     {"/v1/tune?device=voodoo3", testKernel, 400},
		"unknown cache":      {"/v1/tune?cache=huge", testKernel, 400},
		"unknown name":       {"/v1/tune?kernel=nonesuch", "", 400},
		"bad grid":           {"/v1/tune?grid=minus", testKernel, 400},
		"bad iters":          {"/v1/tune?iters=0", testKernel, 400},
		"bad lint":           {"/v1/tune?lint=pedantic", testKernel, 400},
		"garbage text":       {"/v1/tune", "MOVI without a .func header", 400},
		"garbage binary":     {"/v1/tune", "ORN1\x00\x01\x02", 400},
		"laneid + call":      {"/v1/tune", laneCallKernel, 400},
		"laneid compile":     {"/v1/compile", laneCallKernel, 400},
		"oversized body":     {"/v1/tune", testKernel + strings.Repeat("\n", maxBodyBytes), 413},
		"unrealizable tune":  {"/v1/tune", bigSharedKernel, 422},
		"unrealizable sweep": {"/v1/sweep", bigSharedKernel, 422},
	} {
		code, _, body := post(t, hs.URL, req.path, req.body)
		if code != req.want {
			t.Errorf("%s: status = %d (%.200s), want %d", name, code, body, req.want)
		}
	}
}

// TestBlockLargerThanSM: a block with more warps than an SM holds has no
// occupancy level on that device; every job endpoint answers 422 (the
// kernel's fault), not the 500 of a contained panic.
func TestBlockLargerThanSM(t *testing.T) {
	_, hs := newTestServer(t, "")
	for _, d := range device.Both() {
		src := fmt.Sprintf(".kernel huge\n.blockdim %d\n.func main\n  RDSP v0, WARPID\n  STG [v0], v0\n  EXIT\n",
			(d.MaxWarpsPerSM+1)*d.WarpSize)
		for _, ep := range []string{"/v1/tune", "/v1/compile", "/v1/sweep"} {
			path := ep + "?device=" + d.Name
			if code, _, body := post(t, hs.URL, path, src); code != http.StatusUnprocessableEntity {
				t.Errorf("%s: status = %d (%.200s), want 422", path, code, body)
			}
		}
	}
}

// TestCompileHugeIterations: the iteration count only decides whether the
// launch is tunable, so a compile claiming two billion iterations costs
// what one claiming eight does and serves the same fat binary.
func TestCompileHugeIterations(t *testing.T) {
	_, hs := newTestServer(t, "")
	code, _, want := post(t, hs.URL, "/v1/compile?kernel=hotspot&iters=8", "")
	if code != http.StatusOK {
		t.Fatalf("iters=8: status = %d (%.200s)", code, want)
	}
	code, _, got := post(t, hs.URL, "/v1/compile?kernel=hotspot&iters=2000000000", "")
	if code != http.StatusOK {
		t.Fatalf("iters=2000000000: status = %d (%.200s)", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Error("iters=2000000000 served a different fat binary than iters=8")
	}
}

// TestErrorMapping pins the error-to-status table.
func TestErrorMapping(t *testing.T) {
	s := New(Config{Workers: 1, Queue: 1})
	defer s.Close()
	for _, tc := range []struct {
		err  error
		code int
	}{
		{&badRequest{fmt.Errorf("nope")}, http.StatusBadRequest},
		{&badRequest{&http.MaxBytesError{Limit: maxBodyBytes}}, http.StatusRequestEntityTooLarge},
		{&core.ErrInfeasible{TargetWarps: 64, Reason: "x"}, http.StatusUnprocessableEntity},
		{&core.VerifyError{}, http.StatusUnprocessableEntity},
		{&core.AnalysisError{}, http.StatusUnprocessableEntity},
		{ErrBusy, http.StatusTooManyRequests},
		{ErrClosed, http.StatusServiceUnavailable},
		{context.Canceled, 499},
		{fmt.Errorf("weird"), http.StatusInternalServerError},
	} {
		w := httptest.NewRecorder()
		s.fail(w, tc.err)
		if w.Code != tc.code {
			t.Errorf("fail(%v) = %d, want %d", tc.err, w.Code, tc.code)
		}
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, hs := newTestServer(t, t.TempDir())
	code, _, _ := post(t, hs.URL, "/v1/tune?grid=128&iters=4", testKernel)
	if code != http.StatusOK {
		t.Fatalf("tune = %d", code)
	}

	code, data := get(t, hs.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	var hz struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
		Store   bool   `json:"store"`
	}
	if err := json.Unmarshal(data, &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.Workers != 4 || !hz.Store {
		t.Errorf("healthz = %+v", hz)
	}

	code, data = get(t, hs.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	var m struct {
		Metrics struct {
			Counters map[string]uint64 `json:"counters"`
		} `json:"metrics"`
		Store store.Stats `json:"store"`
		Pool  PoolStats   `json:"pool"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.Metrics.Counters["serve.requests"] == 0 {
		t.Error("request counter did not move")
	}
	if _, ok := m.Metrics.Counters["core.realize_cache.misses"]; !ok {
		// PublishCacheMetrics name check is loose: just require some core.*
		// counter to be folded in.
		found := false
		for name := range m.Metrics.Counters {
			if strings.HasPrefix(name, "core.") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no core.* cache counters in /metrics: %v", m.Metrics.Counters)
		}
	}
	if m.Store.Puts == 0 {
		t.Error("store counters not surfaced")
	}
	// Submitted, not Completed: a worker counts a task completed after the
	// job has already released its waiters, so the scrape can get there first.
	if m.Pool.Submitted == 0 {
		t.Error("pool counters not surfaced")
	}
}

// TestTraceEnvelope: ?trace=1 returns a report plus a Chrome trace with
// the request's compile/tune spans.
func TestTraceEnvelope(t *testing.T) {
	_, hs := newTestServer(t, t.TempDir())
	code, _, data := post(t, hs.URL, "/v1/tune?grid=128&iters=4&trace=1", testKernel)
	if code != http.StatusOK {
		t.Fatalf("traced tune = %d: %s", code, data)
	}
	var env struct {
		Report json.RawMessage `json:"report"`
		Trace  struct {
			TraceEvents []struct {
				Name string `json:"name"`
			} `json:"traceEvents"`
		} `json:"trace"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(env.Report, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Params.Kernel != "srvk" {
		t.Errorf("report kernel = %q", rep.Params.Kernel)
	}
	names := map[string]bool{}
	for _, ev := range env.Trace.TraceEvents {
		names[ev.Name] = true
	}
	for _, want := range []string{"serve.tune", "compile", "tune"} {
		if !names[want] {
			t.Errorf("trace missing %q span (have %v)", want, names)
		}
	}
}
