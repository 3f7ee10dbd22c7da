package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentMixedLoad is the daemon's load acceptance: 64 concurrent
// clients issuing a mix of tune, compile, sweep, and scrape requests,
// with zero failed and zero garbled responses (identical requests must
// produce byte-identical bodies — run under -race). It measures nothing:
// the daemon's latency numbers come from the benchmark's serve_mixed
// workload.
func TestConcurrentMixedLoad(t *testing.T) {
	const (
		concurrency = 64
		perClient   = 6
	)
	s := New(Config{Workers: runtime.GOMAXPROCS(0), Queue: concurrency * perClient})
	defer s.Close()
	hs := newLoadServer(t, s)

	// The mix: three tune shapes (two upload, one built-in), a compile, a
	// sweep, and the scrape endpoints. POSTs carry the op name for
	// response-identity grouping.
	type op struct {
		name string
		path string
		body string
	}
	ops := []op{
		{"tune-a", "/v1/tune?grid=128&iters=4", testKernel},
		{"tune-b", "/v1/tune?grid=96&iters=3", testKernel},
		{"tune-bfs", "/v1/tune?kernel=bfs&grid=256&iters=2", ""},
		{"compile", "/v1/compile?grid=128&iters=4", testKernel},
		{"sweep", "/v1/sweep?grid=64", testKernel},
		{"scrape", "", ""}, // healthz + metrics
	}

	type sample struct {
		op   string
		body []byte
	}
	results := make([][]sample, concurrency)
	var wg sync.WaitGroup
	for c := 0; c < concurrency; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				o := ops[(c+i)%len(ops)]
				var body []byte
				var code int
				if o.name == "scrape" {
					code, body = getLoad(t, hs+"/healthz")
					if code == http.StatusOK {
						code, _ = getLoad(t, hs+"/metrics")
					}
				} else {
					code, body = postLoad(t, hs+o.path, o.body)
				}
				if code != http.StatusOK {
					t.Errorf("client %d %s: status %d: %s", c, o.name, code, body)
					return
				}
				results[c] = append(results[c], sample{op: o.name, body: body})
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Garble check: every response for the same op must be byte-identical
	// (all four POST ops are deterministic), and tune responses must parse
	// as canonical reports.
	canonical := map[string][]byte{}
	total := 0
	for c := range results {
		for _, smp := range results[c] {
			total++
			if smp.op == "scrape" {
				continue
			}
			if prev, ok := canonical[smp.op]; !ok {
				canonical[smp.op] = smp.body
			} else if !bytes.Equal(prev, smp.body) {
				t.Fatalf("%s responses differ across clients (garbled under load)", smp.op)
			}
			if strings.HasPrefix(smp.op, "tune") {
				var rep Report
				if err := json.Unmarshal(smp.body, &rep); err != nil {
					t.Fatalf("%s response is not a canonical report: %v", smp.op, err)
				}
				if rep.Chosen.TargetWarps == 0 {
					t.Fatalf("%s report has no chosen occupancy", smp.op)
				}
			}
		}
	}
	if total != concurrency*perClient {
		t.Fatalf("completed %d/%d requests", total, concurrency*perClient)
	}

	// The coalescing and store layers must have absorbed most of the
	// duplication: 64x6 requests, but only a handful of distinct artifacts.
	if st := s.flight.Stats(); st.Coalesced == 0 && s.metrics.Counter("serve.store_hits").Value() == 0 {
		t.Error("no request was coalesced or served from cache under a fully duplicated load")
	}
}

func newLoadServer(t *testing.T, s *Server) string {
	t.Helper()
	srv := &http.Server{Handler: s.Handler()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	return "http://" + ln.Addr().String()
}

func postLoad(t *testing.T, url, body string) (int, []byte) {
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Errorf("POST %s: %v", url, err)
		return 0, nil
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Errorf("read %s: %v", url, err)
		return 0, nil
	}
	return resp.StatusCode, data
}

func getLoad(t *testing.T, url string) (int, []byte) {
	resp, err := http.Get(url)
	if err != nil {
		t.Errorf("GET %s: %v", url, err)
		return 0, nil
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Errorf("read %s: %v", url, err)
		return 0, nil
	}
	return resp.StatusCode, data
}
