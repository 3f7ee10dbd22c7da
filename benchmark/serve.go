package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/serve"
	"repro/internal/store"
)

// Request classes of serve_mixed and how many of each a block of one
// hundred requests holds. The order inside a block is shuffled by the
// seed; the counts are not, so every run serves the same mix.
const (
	clRepeat      = iota // an earlier request again: served from the store
	clTuneUpload         // tune a program the daemon has not seen
	clTuneBuiltin        // tune a built-in kernel at a seeded small grid
	clCompile            // compile an unseen program to a fat binary
	clSweep              // sweep an unseen program
	clScrape             // GET /metrics
	numClasses
)

var classNames = [numClasses]string{"repeat", "tune_upload", "tune_builtin", "compile", "sweep", "scrape"}
var classShare = [numClasses]int{55, 25, 8, 6, 3, 3}

// call is one request as sent: where, what body, which class, and for a
// repeat the original whose response it must reproduce byte for byte.
type call struct {
	class  int
	path   string
	body   []byte
	origin int // index into daemon.originals, -1 for a scrape
}

// original is a request that can be repeated, with the hash of its first
// response once that has arrived.
type original struct {
	call call
	done bool
	sum  [32]byte
}

// daemon is the in-process `orion serve` under load, wired the way
// cmd/orion/serve.go wires it: a store in a fresh directory, the worker
// pool at GOMAXPROCS, a queue of 64, behind net/http on a loopback port.
type daemon struct {
	dir  string
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan struct{}

	uploads []string // OASM text of programs the daemon has not seen
	suite   []*kernels.Kernel

	mu        sync.Mutex
	rng       *rand.Rand
	block     []int
	nextUp    int
	originals []original

	// tr is set for the traced part of a traced run and nil otherwise.
	tr atomic.Pointer[tracer]
}

// ServeHTTP puts the daemon's handler, while tracing, under a span per
// request: a child of the client's span named by the X-Bench-Span header.
func (d *daemon) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := d.tr.Load()
	if tr == nil {
		d.srv.Handler().ServeHTTP(w, r)
		return
	}
	parent := -1
	fmt.Sscan(r.Header.Get("X-Bench-Span"), &parent)
	id := tr.begin("serve.handler", r.Header.Get("X-Bench-Op"), parent)
	d.srv.Handler().ServeHTTP(w, r)
	tr.end(id)
}

func startDaemon(cfg config, tmp string) (*daemon, error) {
	d := &daemon{dir: tmp + "/serve-store", rng: rand.New(rand.NewSource(cfg.seed))}
	ks, err := kernels.All()
	if err != nil {
		return nil, err
	}
	d.suite = ks
	for i := 0; i < cfg.sizes.UploadPool; i++ {
		src, _, err := draw(cfg.seed, i, fmt.Sprintf("up%04d_s%d", i, cfg.seed), nil)
		if err != nil {
			return nil, err
		}
		d.uploads = append(d.uploads, src)
	}
	if err := os.RemoveAll(d.dir); err != nil {
		return nil, err
	}
	st, err := store.Open(d.dir)
	if err != nil {
		return nil, err
	}
	d.srv = serve.New(serve.Config{Store: st, Workers: runtime.GOMAXPROCS(0), Queue: 64})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.srv.Close()
		return nil, err
	}
	d.base = "http://" + ln.Addr().String()
	d.hs = &http.Server{Handler: d}
	d.done = make(chan struct{})
	go func() { _ = d.hs.Serve(ln); close(d.done) }()
	return d, nil
}

// stop shuts the listener, waits for the serving goroutine, drains the
// pool and removes the store directory.
func (d *daemon) stop() {
	_ = d.hs.Close()
	<-d.done
	d.srv.Close()
	_ = os.RemoveAll(d.dir)
}

// Launches of uploaded programs: the ranges of the issue (grid 256–1024
// warps, 4–8 iterations), walked in step with the upload index so that
// any prefix of the pool holds every combination equally often.
var uploadGrids = []int{256, 512, 768, 1024}
var uploadIters = []int{4, 6, 8}

// next draws the following request of the seeded schedule.
func (d *daemon) next() call {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.block) == 0 {
		for class, n := range classShare {
			for ; n > 0; n-- {
				d.block = append(d.block, class)
			}
		}
		d.rng.Shuffle(len(d.block), func(i, j int) { d.block[i], d.block[j] = d.block[j], d.block[i] })
	}
	class := d.block[0]
	d.block = d.block[1:]

	if class == clRepeat {
		// A completed original, so that the repeat is a store hit and not
		// a request joined in flight. Scanning down from the seeded draw
		// keeps the choice the same whenever the draw itself is complete.
		if n := len(d.originals); n > 0 {
			for i := d.rng.Intn(n); i >= 0; i-- {
				if d.originals[i].done {
					c := d.originals[i].call
					c.class, c.origin = clRepeat, i
					return c
				}
			}
		}
		class = clTuneUpload // nothing to repeat yet
	}
	var c call
	switch class {
	case clScrape:
		return call{class: clScrape, path: "/metrics", origin: -1}
	case clTuneBuiltin:
		k := d.suite[d.rng.Intn(len(d.suite))]
		wpb := k.Prog.BlockDim / 32
		q := url.Values{"kernel": {k.Name}, "grid": {fmt.Sprint(wpb * (8 + d.rng.Intn(25)))}, "iters": {fmt.Sprint(k.Iterations)}}
		c = call{class: class, path: "/v1/tune?" + q.Encode()}
	default:
		i := d.nextUp % len(d.uploads) // past the pool's end an upload is one the daemon has seen
		d.nextUp++
		q := url.Values{"grid": {fmt.Sprint(uploadGrids[i%len(uploadGrids)])}, "iters": {fmt.Sprint(uploadIters[i/len(uploadGrids)%len(uploadIters)])}}
		op := map[int]string{clTuneUpload: "tune", clCompile: "compile", clSweep: "sweep"}[class]
		c = call{class: class, path: "/v1/" + op + "?" + q.Encode(), body: []byte(d.uploads[i])}
	}
	c.origin = len(d.originals)
	d.originals = append(d.originals, original{call: c})
	return c
}

// fetch sends one request and reads the whole response.
func fetch(client *http.Client, method, url string, body []byte, header http.Header) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	for k, v := range header {
		req.Header[k] = v
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// served is one completed request of the measured part of the run.
type served struct {
	class int
	ms    float64
	end   time.Duration // since measurement started
}

// send issues c, times it, and checks the response outside the timed part.
func (d *daemon) send(client *http.Client, c call, seq int, t *tally) float64 {
	op := fmt.Sprintf("req%05d.%s", seq, classNames[c.class])
	method := "POST"
	if c.class == clScrape {
		method = "GET"
	}
	var header http.Header
	tr := d.tr.Load()
	id := tr.begin("serve."+classNames[c.class], op, -1)
	if tr != nil {
		header = http.Header{"X-Bench-Span": {fmt.Sprint(id)}, "X-Bench-Op": {op}}
	}
	start := time.Now()
	status, body, err := fetch(client, method, d.base+c.path, c.body, header)
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	tr.end(id)

	switch {
	case err != nil:
		t.fail("%s: %v", op, err)
	case status != http.StatusOK:
		t.fail("%s: status %d: %.200s", op, status, body)
	case c.class == clScrape:
		t.expect(json.Valid(body), "%s: /metrics is not JSON", op)
	default:
		sum := sha256.Sum256(body)
		d.mu.Lock()
		o := &d.originals[c.origin]
		same := !o.done || o.sum == sum
		if !o.done {
			o.done, o.sum = true, sum
		}
		d.mu.Unlock()
		t.expect(same, "%s: response differs from the first response to the same request", op)
	}
	return ms
}

// load runs the closed loop: clients goroutines, one keep-alive connection
// each, every one sending its next request when the previous has been
// answered (build-farm callers wait for their artifact). The first warm
// requests are served before measurement starts: until some requests have
// completed there is nothing to repeat, so the start of the schedule is
// all cold and not the mix the workload is about. Measurement then lasts
// seconds, or maxRequests if that is set.
//
// rssMB is the process's peak resident set when rssAfterRequests measured
// requests have completed (or at the end of a shorter run): the daemon
// keeps every distinct program's realized versions for its lifetime, so a
// peak read after a fixed amount of work does not depend on how many
// requests the host's speed let the run fit in.
//
// While the clients run, a sampler takes the host index every 25 ms (about
// 1 % of one core); host is those samples from the measured part.
func (d *daemon) load(clients, warm int, seconds float64, maxRequests int, t *tally) (reqs []served, host []hostSample, elapsed, rssMB float64) {
	var mu sync.Mutex
	var begin time.Time
	started := false
	seq := 0
	quit := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				us := hostIndex()
				mu.Lock()
				if started {
					host = append(host, hostSample{time.Since(begin), us})
				}
				mu.Unlock()
			}
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
			defer client.CloseIdleConnections()
			for {
				mu.Lock()
				if !started && seq >= warm {
					started, begin = true, time.Now()
				}
				stop := started && time.Since(begin).Seconds() >= seconds
				if maxRequests > 0 && seq >= warm+maxRequests {
					stop = true
				}
				n, measured := seq, started
				if !stop {
					seq++
				}
				mu.Unlock()
				if stop {
					return
				}
				call := d.next()
				ms := d.send(client, call, n, t)
				if measured {
					mu.Lock()
					reqs = append(reqs, served{call.class, ms, time.Since(begin)})
					if len(reqs) == rssAfterRequests {
						rssMB = peakRSSMB()
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	close(quit)
	<-sampled
	if !started {
		return nil, nil, 0, 0
	}
	if rssMB == 0 {
		rssMB = peakRSSMB()
	}
	last := time.Duration(0)
	for _, r := range reqs {
		last = max(last, r.end)
	}
	return reqs, host, last.Seconds(), rssMB
}

// hostSample is one host-index sample of a load, by when it was taken.
type hostSample struct {
	at time.Duration // since measurement started
	us float64
}

// slowdownBetween is the host's slowdown over the samples taken in
// (from, to], or over all of them when that stretch has none.
func slowdownBetween(host []hostSample, from, to time.Duration) float64 {
	var in, all []float64
	for _, h := range host {
		all = append(all, h.us)
		if h.at > from && h.at <= to {
			in = append(in, h.us)
		}
	}
	if len(in) == 0 {
		in = all
	}
	if len(in) == 0 {
		in = []float64{hostIndex()}
	}
	return median(in) / referenceIndexUS
}

const rssAfterRequests = 400

// serveMetrics reduces the measured requests to the timing metrics, each
// corrected for the host's slowdown. pass_s is the time the daemon took per
// thousand requests of the mix; the per-pass estimates behind the spread
// are five equal slices of the run, each corrected by its own slowdown.
func serveMetrics(reqs []served, host []hostSample, elapsed float64, m map[string]sample) float64 {
	all := make([]float64, len(reqs))
	for i, r := range reqs {
		all[i] = r.ms
	}
	const slices = 5
	var passS, p50s, p90s []float64
	for s := 0; s < slices && len(reqs) >= 10*slices; s++ {
		lo, hi := s*len(reqs)/slices, (s+1)*len(reqs)/slices
		from := time.Duration(0)
		if lo > 0 {
			from = reqs[lo-1].end
		}
		f := slowdownBetween(host, from, reqs[hi-1].end)
		passS = append(passS, (reqs[hi-1].end-from).Seconds()/float64(hi-lo)*1000/f)
		p50s = append(p50s, percentile(all[lo:hi], 50)/f)
		p90s = append(p90s, percentile(all[lo:hi], 90)/f)
	}
	f := slowdownBetween(host, 0, time.Duration(elapsed*float64(time.Second)))
	m["pass_s"] = timed(elapsed/float64(len(reqs))*1000/f, "s", passS)
	m["op_p50_ms"] = timed(percentile(all, 50)/f, "ms", p50s)
	m["op_p90_ms"] = timed(percentile(all, 90)/f, "ms", p90s)
	return f
}

// classLatencies are the per-class numbers of a traced run, corrected for
// the host's slowdown f over it.
func classLatencies(reqs []served, f float64, m map[string]float64) {
	by := map[int][]float64{}
	var cold []float64
	for _, r := range reqs {
		by[r.class] = append(by[r.class], r.ms/f)
		if r.class != clRepeat && r.class != clScrape {
			cold = append(cold, r.ms/f)
		}
	}
	m["serve.warm_p50_us"] = percentile(by[clRepeat], 50) * 1e3
	m["serve.cold_p50_ms"] = percentile(cold, 50)
	m["serve.cold_p90_ms"] = percentile(cold, 90)
	m["serve.p99_ms"] = percentile(append(append(cold, by[clRepeat]...), by[clScrape]...), 99)
	m["serve.tune_upload_p50_ms"] = percentile(by[clTuneUpload], 50)
	m["serve.tune_builtin_p50_ms"] = percentile(by[clTuneBuiltin], 50)
	m["serve.compile_p50_ms"] = percentile(by[clCompile], 50)
	m["serve.sweep_p50_ms"] = percentile(by[clSweep], 50)
	m["serve.scrape_p50_us"] = percentile(by[clScrape], 50) * 1e3
}

// daemonCounters reads the daemon's own view of the run from /metrics and
// the store directory.
func (d *daemon) daemonCounters(m map[string]float64) error {
	client := &http.Client{}
	defer client.CloseIdleConnections()
	status, body, err := fetch(client, "GET", d.base+"/metrics", nil, nil)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("/metrics: status %d: %v", status, err)
	}
	var snap struct {
		Store  store.Stats       `json:"store"`
		Pool   serve.PoolStats   `json:"pool"`
		Flight serve.FlightStats `json:"flight"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		return err
	}
	m["store.hits"] = float64(snap.Store.Hits)
	m["store.misses"] = float64(snap.Store.Misses)
	m["serve.coalesced"] = float64(snap.Flight.Coalesced)
	m["serve.rejected_429"] = float64(snap.Pool.Rejected)
	size := int64(0)
	err = filepath.WalkDir(d.dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && e.Type().IsRegular() {
			if info, ierr := e.Info(); ierr == nil {
				size += info.Size()
			}
		}
		return err
	})
	m["store.bytes"] = float64(size)
	return err
}

// check verifies the daemon against the library it wraps and measures the
// simulated quality of what it serves. Every sixteenth tune upload's
// response, and the response to a tune of every suite kernel at the probe
// launch, must equal byte for byte the report built from a direct
// core.Realizer.Tune; the suite kernels' speedups over the nvcc-like
// baseline, at launches that do not depend on the seed, give the geomean.
func (d *daemon) check(t *tally, probeScale float64) (outcome, error) {
	var out outcome
	client := &http.Client{}
	defer client.CloseIdleConnections()

	direct := func(path string, body []byte, prog *isa.Program) (*serve.Report, error) {
		status, got, err := fetch(client, "POST", d.base+path, body, nil)
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("status %d: %v", status, err)
		}
		var r serve.Report
		if err := json.Unmarshal(got, &r); err != nil {
			return nil, err
		}
		dev := device.GTX680()
		rz := core.NewRealizer(dev, device.SmallCache)
		lc := core.Launch{GridWarps: r.Params.Grid, Iterations: r.Params.Iters}
		rep, err := rz.Tune(prog, lc)
		if err != nil {
			return nil, err
		}
		want := serve.EncodeReport(serve.BuildReport(r.Params, prog, dev, rz.CanTune(prog, lc), rep))
		if !bytes.Equal(got, want) {
			return nil, fmt.Errorf("response differs from the report of a direct core run")
		}
		return &r, nil
	}

	d.mu.Lock()
	var sampled []call
	tunes := 0
	for _, o := range d.originals {
		if o.call.class == clTuneUpload && o.done {
			if tunes%16 == 0 {
				sampled = append(sampled, o.call)
			}
			tunes++
		}
	}
	d.mu.Unlock()
	for _, c := range sampled {
		prog, err := isa.Parse(string(c.body))
		if err == nil {
			_, err = direct(c.path, c.body, prog)
		}
		t.expect(err == nil, "tune upload %s: %v", c.path, err)
	}

	var speedups []float64
	for _, k := range d.suite {
		grid := paperGrid(k, probeScale)
		q := url.Values{"kernel": {k.Name}, "grid": {fmt.Sprint(grid)}, "iters": {fmt.Sprint(k.Iterations)}}
		r, err := direct("/v1/tune?"+q.Encode(), nil, k.Prog)
		if err != nil {
			t.fail("tune of %s: %v", k.Name, err)
			continue
		}
		t.ok()
		_, base, err := core.NewRealizer(device.GTX680(), device.SmallCache).Baseline(k.Prog, grid)
		if err != nil {
			return out, err
		}
		launches := r.Runs
		if r.KernelSplit {
			launches = 1
		}
		row := programRow{Program: k.Name, ChosenWarps: r.Chosen.TargetWarps, TunedCycles: r.TotalCycles,
			Speedup: float64(base.Cycles) * float64(launches) / float64(r.TotalCycles)}
		speedups = append(speedups, row.Speedup)
		out.programs = append(out.programs, row)
	}
	out.speedup = geomean(speedups)
	return out, nil
}
