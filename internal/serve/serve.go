// Package serve is the Orion tuning daemon: a long-running HTTP service
// that accepts OASM kernels, realizes and tunes them concurrently on the
// simulated device, and returns multi-version fat binaries and canonical
// tune reports. It is the paper's deployment story scaled from one-shot
// CLI invocations to a shared service — build farms POST kernels, the
// daemon amortizes compilation across requests and restarts.
//
// Four layers stack under the handlers:
//
//   - a content-addressed artifact store (internal/store) keyed by the
//     program/device fingerprints, so restarts and replicas share a warm
//     cache and repeat requests are served from disk byte-identically;
//   - request coalescing (Flight) on top of the daemon's own core.Caches
//     single-flight memos, so identical concurrent POSTs cost one tune;
//   - a bounded worker pool (Pool) with backpressure — a full queue is an
//     immediate 429, and a request whose client disconnects cancels any
//     pending ladder work it alone was waiting for;
//   - obs-backed /metrics and /healthz, with optional per-request Chrome
//     trace spans (?trace=1) through the existing export machinery.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/store"
)

// maxBodyBytes bounds uploaded kernel sources and binaries.
const maxBodyBytes = 4 << 20

// Config configures a daemon instance.
type Config struct {
	// Store persists artifacts across restarts; nil runs storeless (every
	// artifact recomputed per process, still coalesced and memoized).
	Store *store.Store
	// Workers is the tuning pool size; <1 means GOMAXPROCS.
	Workers int
	// Queue is the pending-request bound; <0 means 0 (no queueing:
	// admission requires a free worker). Default 64 when zero.
	Queue int
}

// Server is one daemon instance. Create with New, expose via Handler,
// stop with Close.
type Server struct {
	cfg     Config
	pool    *Pool
	flight  *Flight
	caches  *core.Caches // the realize and run memos, owned by this daemon
	metrics *obs.Registry
	mux     *http.ServeMux
	start   time.Time
}

// New builds a daemon from cfg.
func New(cfg Config) *Server {
	workers := cfg.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	cfg.Workers = workers // expose the resolved size via /healthz
	queue := cfg.Queue
	if queue == 0 {
		queue = 64
	}
	if queue < 0 {
		queue = 0
	}
	s := &Server{
		cfg:     cfg,
		pool:    NewPool(workers, queue),
		flight:  NewFlight(),
		caches:  core.NewCaches(),
		metrics: obs.NewRegistry(),
		mux:     http.NewServeMux(),
		start:   time.Now(),
	}
	s.mux.HandleFunc("POST /v1/tune", s.handleTune)
	s.mux.HandleFunc("POST /v1/compile", s.handleCompile)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("GET /v1/artifact/{kind}/{key}", s.handleArtifact)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close drains the worker pool. In-flight requests finish; new Submits
// fail with ErrClosed.
func (s *Server) Close() { s.pool.Close() }

// request is one parsed tuning request: canonical parameters plus the
// resolved program and platform.
type request struct {
	params Params
	prog   *isa.Program
	dev    *device.Device
	cache  device.CacheConfig
	lint   core.LintMode
	trace  bool
	caches *core.Caches // the server's
}

// badRequest marks client errors (unparsable kernels, unknown devices)
// for the 400 path.
type badRequest struct{ err error }

func (e *badRequest) Error() string { return e.err.Error() }
func (e *badRequest) Unwrap() error { return e.err }

// parseRequest resolves the query parameters and body into a request.
// The canonical Params come from the resolved values (device name, cache
// config string, lint mode string), never from the raw query text, so
// aliases like device=kepler produce byte-identical artifacts.
func (s *Server) parseRequest(req *http.Request) (*request, error) {
	q := req.URL.Query()
	dev, err := device.ByName(valueOr(q.Get("device"), "gtx680"))
	if err != nil {
		return nil, &badRequest{err}
	}
	cc, err := device.ParseCacheConfig(valueOr(q.Get("cache"), "sc"))
	if err != nil {
		return nil, &badRequest{err}
	}
	lint, err := core.ParseLintMode(valueOr(q.Get("lint"), "strict"))
	if err != nil {
		return nil, &badRequest{err}
	}
	verify := true
	if v := q.Get("verify"); v != "" {
		verify, err = strconv.ParseBool(v)
		if err != nil {
			return nil, &badRequest{fmt.Errorf("bad verify=%q", v)}
		}
	}

	var prog *isa.Program
	grid, iters := 1024, 8
	if name := q.Get("kernel"); name != "" {
		k, err := kernels.ByName(name)
		if err != nil {
			return nil, &badRequest{err}
		}
		prog, grid, iters = k.Prog, k.GridWarps, k.Iterations
	} else {
		body, err := io.ReadAll(http.MaxBytesReader(nil, req.Body, maxBodyBytes))
		if err != nil {
			return nil, &badRequest{fmt.Errorf("reading body: %w", err)}
		}
		if len(body) == 0 {
			return nil, &badRequest{errors.New("a kernel is required: ?kernel=NAME or an OASM body")}
		}
		if prog, err = isa.Load(body); err != nil {
			return nil, &badRequest{err}
		}
	}
	if v := q.Get("grid"); v != "" {
		grid, err = strconv.Atoi(v)
		if err != nil || grid < 1 {
			return nil, &badRequest{fmt.Errorf("bad grid=%q", v)}
		}
	}
	if v := q.Get("iters"); v != "" {
		iters, err = strconv.Atoi(v)
		if err != nil || iters < 1 {
			return nil, &badRequest{fmt.Errorf("bad iters=%q", v)}
		}
	}

	return &request{
		params: NewParams(prog, dev, cc, core.Launch{GridWarps: grid, Iterations: iters}, lint, verify),
		prog:   prog,
		dev:    dev,
		cache:  cc,
		lint:   lint,
		trace:  q.Get("trace") != "",
		caches: s.caches,
	}, nil
}

func valueOr(v, def string) string {
	if v == "" {
		return def
	}
	return v
}

// realizer builds a fresh per-request realizer; the expensive state (the
// realization and run memos) lives in the server's fingerprint-keyed
// Caches, so per-request construction costs nothing.
func (r *request) realizer(col *obs.Collector) *core.Realizer {
	rz := r.caches.NewRealizer(r.dev, r.cache)
	rz.Verify = r.params.Verify
	rz.Lint = r.lint
	rz.Obs = col
	return rz
}

// fatParams strips the launch-specific fields from the request params:
// a fat binary depends on the launch only through canTune, which is
// folded into the operation name instead.
func fatParams(p Params) Params {
	p.Grid, p.Iters = 0, 0
	return p
}

func fatOp(canTune bool) string {
	if canTune {
		return "fat-tunable"
	}
	return "fat-static"
}

// launch is the request's Launch value.
func (r *request) launch() core.Launch {
	return core.Launch{GridWarps: r.params.Grid, Iterations: r.params.Iters}
}

// ---- handlers ----

func (s *Server) handleTune(w http.ResponseWriter, req *http.Request) {
	s.metrics.Counter("serve.requests").Add(1)
	r, err := s.parseRequest(req)
	if err != nil {
		s.fail(w, err)
		return
	}
	if r.trace {
		s.tuneTraced(w, req, r)
		return
	}
	key := RequestKey("tune", r.params, r.prog, r.dev)
	s.serveArtifact(w, req, "tune", "application/json", key, "serve.tune_ms", func(ctx context.Context) ([]byte, error) {
		return s.tuneJob(ctx, r)
	})
}

// serveArtifact is the one path from a request key to response bytes: a
// stored artifact is served as is; otherwise job runs once for every
// concurrent request with this key (Flight) on the worker pool, its
// wall time lands in the hist histogram, and the result is persisted
// before it is written.
func (s *Server) serveArtifact(w http.ResponseWriter, req *http.Request, kind, contentType, key, hist string, job func(context.Context) ([]byte, error)) {
	if data, ok, _ := s.cfg.Store.Get(kind, key); ok {
		s.metrics.Counter("serve.store_hits").Add(1)
		writeArtifact(w, contentType, key, data)
		return
	}
	s.metrics.Counter("serve.store_misses").Add(1)
	startAt := time.Now()
	data, err := s.flight.Do(req.Context(), key, s.pool, job)
	if err != nil {
		s.fail(w, err)
		return
	}
	s.metrics.Histogram(hist).Observe(float64(time.Since(startAt).Milliseconds()))
	if err := s.cfg.Store.Put(kind, key, data); err != nil {
		s.metrics.Counter("serve.store_errors").Add(1)
	}
	writeArtifact(w, contentType, key, data)
}

// tuneJob is the cold path: compile (or decode a stored fat binary),
// tune, and render the canonical report. ctx is the coalesced job
// context; it is checked between the two expensive phases so abandoned
// requests stop occupying a worker.
func (s *Server) tuneJob(ctx context.Context, r *request) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rz := r.realizer(nil)
	canTune := rz.CanTune(r.prog, r.launch())
	cr, err := s.compileResult(rz, r, canTune)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rep, err := rz.TuneCompiled(cr, r.launch())
	if err != nil {
		return nil, err
	}
	return EncodeReport(BuildReport(r.params, r.prog, r.dev, canTune, rep)), nil
}

// compileResult returns the compile-time tuning output for the request,
// preferring a stored fat binary (decoded fat round-trips byte-identical
// programs, so the downstream tune is bit-for-bit the same as from a
// fresh compile) and persisting fresh compiles for the next restart.
func (s *Server) compileResult(rz *core.Realizer, r *request, canTune bool) (*core.CompileResult, error) {
	key := RequestKey(fatOp(canTune), fatParams(r.params), r.prog, r.dev)
	if data, ok, _ := s.cfg.Store.Get("fat", key); ok {
		if cr, err := core.DecodeFat(data); err == nil {
			s.metrics.Counter("serve.fat_reused").Add(1)
			return cr, nil
		}
		// Undecodable stored fat (format drift): fall through to recompile.
		s.metrics.Counter("serve.fat_stale").Add(1)
	}
	cr, err := rz.Compile(r.prog, canTune)
	if err != nil {
		return nil, err
	}
	if err := s.cfg.Store.Put("fat", key, core.EncodeFat(cr)); err != nil {
		s.metrics.Counter("serve.store_errors").Add(1)
	}
	return cr, nil
}

// tuneTraced is the diagnostic path (?trace=1): the tune runs with a
// per-request collector and the response envelope carries the report
// plus a Chrome trace of the request's spans. Traces are timing-laden
// and therefore nondeterministic, so this path bypasses the store and
// goes through the flight under a key no other request can share: it
// coalesces with nothing, but admission control, panic containment and
// the wait for the client are the flight's, as for every other job.
func (s *Server) tuneTraced(w http.ResponseWriter, req *http.Request, r *request) {
	col := obs.New()
	key := fmt.Sprintf("trace/%p", col) // col outlives the call, so no live request shares it
	data, err := s.flight.Do(req.Context(), key, s.pool, func(context.Context) ([]byte, error) {
		sp := col.StartSpan("serve.tune",
			obs.String("kernel", r.params.Kernel),
			obs.String("device", r.params.Device))
		rz := r.realizer(col)
		rep, err := rz.Tune(r.prog, r.launch())
		sp.End()
		if err != nil {
			return nil, err
		}
		return EncodeReport(BuildReport(r.params, r.prog, r.dev, rz.CanTune(r.prog, r.launch()), rep)), nil
	})
	if err != nil {
		s.fail(w, err)
		return
	}
	var trace bytes.Buffer
	if err := col.WriteChromeTrace(&trace); err != nil {
		s.fail(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	envelope := struct {
		Report json.RawMessage `json:"report"`
		Trace  json.RawMessage `json:"trace"`
	}{Report: json.RawMessage(data), Trace: trace.Bytes()}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(envelope)
}

func (s *Server) handleCompile(w http.ResponseWriter, req *http.Request) {
	s.metrics.Counter("serve.requests").Add(1)
	r, err := s.parseRequest(req)
	if err != nil {
		s.fail(w, err)
		return
	}
	rz := r.realizer(nil)
	canTune := rz.CanTune(r.prog, r.launch())
	key := RequestKey(fatOp(canTune), fatParams(r.params), r.prog, r.dev)
	s.serveArtifact(w, req, "fat", "application/octet-stream", key, "serve.compile_ms", func(ctx context.Context) ([]byte, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cr, err := rz.Compile(r.prog, canTune)
		if err != nil {
			return nil, err
		}
		return core.EncodeFat(cr), nil
	})
}

// SweepRow is one occupancy level of a sweep response.
type SweepRow struct {
	TargetWarps int     `json:"target_warps"`
	Occupancy   float64 `json:"occupancy"`
	Regs        int     `json:"regs_per_thread"`
	SharedBytes int     `json:"shared_per_block"`
	LocalSlots  int     `json:"local_slots"`
	Cycles      uint64  `json:"cycles"`
	Energy      float64 `json:"energy"`
	Checksum    string  `json:"checksum"`
}

// SweepReport is the canonical sweep response.
type SweepReport struct {
	Params      Params     `json:"params"`
	Fingerprint string     `json:"fingerprint"`
	DeviceFP    string     `json:"device_fingerprint"`
	Levels      []SweepRow `json:"levels"`
}

func (s *Server) handleSweep(w http.ResponseWriter, req *http.Request) {
	s.metrics.Counter("serve.requests").Add(1)
	r, err := s.parseRequest(req)
	if err != nil {
		s.fail(w, err)
		return
	}
	key := RequestKey("sweep", r.params, r.prog, r.dev)
	s.serveArtifact(w, req, "sweep", "application/json", key, "serve.sweep_ms", func(ctx context.Context) ([]byte, error) {
		return s.sweepJob(ctx, r)
	})
}

// sweepJob is Realizer.SweepCtx under the coalesced job context — when
// every client waiting on this sweep has gone, levels not yet dispatched
// are abandoned mid-ladder — rendered as the canonical sweep table.
func (s *Server) sweepJob(ctx context.Context, r *request) ([]byte, error) {
	levels, err := r.realizer(nil).SweepCtx(ctx, r.prog, r.params.Grid)
	if err != nil {
		return nil, err
	}
	rep := &SweepReport{
		Params:      r.params,
		Fingerprint: r.prog.Fingerprint().String(),
		DeviceFP:    fmt.Sprintf("%016x", r.dev.Fingerprint()),
		Levels:      make([]SweepRow, len(levels)),
	}
	for i, l := range levels {
		rep.Levels[i] = SweepRow{
			TargetWarps: l.TargetWarps,
			Occupancy:   l.Occupancy(r.dev.MaxWarpsPerSM),
			Regs:        l.Version.RegsPerThread,
			SharedBytes: l.Version.SharedPerBlock,
			LocalSlots:  l.Version.LocalSlots,
			Cycles:      l.Stats.Cycles,
			Energy:      l.Stats.Energy,
			Checksum:    fmt.Sprintf("%016x", l.Stats.Checksum),
		}
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

func (s *Server) handleArtifact(w http.ResponseWriter, req *http.Request) {
	s.metrics.Counter("serve.requests").Add(1)
	kind, key := req.PathValue("kind"), req.PathValue("key")
	data, ok, err := s.cfg.Store.Get(kind, key)
	if err != nil {
		s.fail(w, &badRequest{err})
		return
	}
	if !ok {
		http.Error(w, "artifact not found", http.StatusNotFound)
		return
	}
	ct := "application/octet-stream"
	if kind == "tune" || kind == "sweep" {
		ct = "application/json"
	}
	writeArtifact(w, ct, key, data)
}

func (s *Server) handleHealthz(w http.ResponseWriter, req *http.Request) {
	resp := struct {
		Status   string `json:"status"`
		UptimeMS int64  `json:"uptime_ms"`
		Workers  int    `json:"workers"`
		QueueCap int    `json:"queue_cap"`
		Store    bool   `json:"store"`
	}{
		Status:   "ok",
		UptimeMS: time.Since(s.start).Milliseconds(),
		Workers:  s.cfg.Workers,
		QueueCap: s.pool.Stats().QueueCap,
		Store:    s.cfg.Store != nil,
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, req *http.Request) {
	// Fold this daemon's memo-cache counters into the registry at snapshot
	// time, the same way the CLI's -metrics export does the process's.
	s.caches.Publish(s.metrics)
	resp := struct {
		Metrics obs.MetricsSnapshot `json:"metrics"`
		Store   store.Stats         `json:"store"`
		Pool    PoolStats           `json:"pool"`
		Flight  FlightStats         `json:"flight"`
	}{
		Metrics: s.metrics.Snapshot(),
		Store:   s.cfg.Store.Stats(),
		Pool:    s.pool.Stats(),
		Flight:  s.flight.Stats(),
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(resp)
}

// writeArtifact sends an artifact with its store key exposed so clients
// can re-fetch it via /v1/artifact.
func writeArtifact(w http.ResponseWriter, contentType, key string, data []byte) {
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("X-Orion-Key", key)
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	_, _ = w.Write(data)
}

// fail maps pipeline errors onto HTTP status codes: client mistakes are
// 400 (413 for a body over maxBodyBytes), kernels the pipeline rejects are
// 422, saturation is 429, shutdown 503, a caller that gave up 499 (nginx's
// client-closed-request), and anything else 500.
func (s *Server) fail(w http.ResponseWriter, err error) {
	s.metrics.Counter("serve.errors").Add(1)
	code := http.StatusInternalServerError
	var br *badRequest
	var tooLarge *http.MaxBytesError
	var infeasible *core.ErrInfeasible
	var verr *core.VerifyError
	var aerr *core.AnalysisError
	switch {
	case errors.As(err, &tooLarge):
		code = http.StatusRequestEntityTooLarge
	case errors.As(err, &br):
		code = http.StatusBadRequest
	case errors.As(err, &infeasible), errors.As(err, &verr), errors.As(err, &aerr):
		code = http.StatusUnprocessableEntity
	case errors.Is(err, ErrBusy):
		code = http.StatusTooManyRequests
		s.metrics.Counter("serve.busy").Add(1)
	case errors.Is(err, ErrClosed):
		code = http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client is gone; the status is for the access log only.
		code = 499
	}
	http.Error(w, err.Error(), code)
}
