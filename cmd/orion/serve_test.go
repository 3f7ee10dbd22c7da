package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/isa"
	"repro/internal/serve"
)

const smokeKernel = `
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

// syncWriter lets the test read the daemon's startup line while the
// serve goroutine is still writing to it.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestServeSmoke is the end-to-end daemon check `make serve-smoke` runs:
// start `orion serve`, assert /healthz, POST a kernel, and require the
// response to be byte-identical to what the one-shot CLI writes with
// `orion tune -json` for the same kernel and flags; then shut down
// gracefully via SIGINT. Alongside, a client that stalls halfway through
// its request line must be disconnected by the daemon's header timeout
// while the normal tune still answers.
func TestServeSmoke(t *testing.T) {
	dir := t.TempDir()
	kfile := filepath.Join(dir, "k.oasm")
	if err := os.WriteFile(kfile, []byte(smokeKernel), 0o644); err != nil {
		t.Fatal(err)
	}

	out := &syncWriter{}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"serve", "-addr", "127.0.0.1:0", "-store", filepath.Join(dir, "store")}, out)
	}()

	// The daemon prints its resolved address once the listener is up.
	addrRe := regexp.MustCompile(`listening on (http://[^ ]+) `)
	var base string
	for deadline := time.Now().Add(10 * time.Second); ; {
		if m := addrRe.FindStringSubmatch(out.String()); m != nil {
			base = m[1]
			break
		}
		select {
		case err := <-done:
			t.Fatalf("daemon exited early: %v\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || hz.Status != "ok" {
		t.Fatalf("healthz = %d %q", resp.StatusCode, hz.Status)
	}

	stalled, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if _, err := stalled.Write([]byte("POST /v1/tu")); err != nil {
		t.Fatal(err)
	}
	stalledAt := time.Now()

	resp, err = http.Post(base+"/v1/tune?grid=128&iters=4", "text/plain", strings.NewReader(smokeKernel))
	if err != nil {
		t.Fatal(err)
	}
	served, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tune = %d: %s", resp.StatusCode, served)
	}

	// The one-shot CLI with the same kernel and flags.
	jsonFile := filepath.Join(dir, "report.json")
	var cli bytes.Buffer
	if err := run([]string{"tune", "-file", kfile, "-grid", "128", "-iters", "4", "-json", jsonFile}, &cli); err != nil {
		t.Fatalf("cli tune: %v\n%s", err, cli.String())
	}
	want, err := os.ReadFile(jsonFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, want) {
		t.Errorf("daemon report differs from CLI report:\ndaemon:\n%s\ncli:\n%s", served, want)
	}

	// The stalled client: once readHeaderTimeout has passed the server
	// gives up on the request (net/http answers 400) and closes the
	// connection, so reading to EOF succeeds before the deadline.
	if err := stalled.SetReadDeadline(stalledAt.Add(readHeaderTimeout + 10*time.Second)); err != nil {
		t.Fatal(err)
	}
	if reply, err := io.ReadAll(stalled); err != nil {
		t.Errorf("stalled connection was not closed by the server: %v (read %q)", err, reply)
	}

	// Graceful shutdown: the daemon catches SIGINT, drains, and returns.
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("daemon did not shut down on SIGINT")
	}
	if !strings.Contains(out.String(), "draining") {
		t.Errorf("missing drain notice in:\n%s", out.String())
	}
}

// TestBuildMatchesServeCompile is the fat-binary half of "the daemon
// matches the CLI": `orion build -kernel K` and POST /v1/compile?kernel=K
// must write the same bytes, which they do only if both decide tunability
// the way Tune does. backprop is invoked once on a grid large enough to
// kernel-split (iterations alone say static; at 8949cdd the CLI baked a
// static choice in and the two differed at byte 8), particles is invoked
// once on 448 warps, too few to split (static on both sides), srad runs
// ten iterations.
func TestBuildMatchesServeCompile(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 2})
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		srv.Close()
	}()
	dir := t.TempDir()
	for _, k := range []string{"backprop", "particles", "srad"} {
		resp, err := http.Post(hs.URL+"/v1/compile?kernel="+k, "text/plain", nil)
		if err != nil {
			t.Fatal(err)
		}
		served, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("compile %s = %d: %s", k, resp.StatusCode, served)
		}
		fat := filepath.Join(dir, k+".ofat")
		if err := run([]string{"build", "-kernel", k, "-o", fat}, io.Discard); err != nil {
			t.Fatalf("build %s: %v", k, err)
		}
		built, err := os.ReadFile(fat)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(built, served) {
			at := 0
			for at < len(built) && at < len(served) && built[at] == served[at] {
				at++
			}
			t.Errorf("%s: `orion build` wrote %d bytes, /v1/compile served %d; first difference at byte %d",
				k, len(built), len(served), at+1)
		}
	}
}

// TestFileAcceptsAssembledBinary: -file takes what cmd/oasm writes. The
// ORN1 encoding of a kernel must compile to exactly the output its OASM
// text does (at 8949cdd the CLI fed the binary to the text parser and
// failed with "instruction outside .func", while the daemon accepted it).
func TestFileAcceptsAssembledBinary(t *testing.T) {
	text, err := os.ReadFile("../../examples/kernels/saxpy.oasm")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := isa.Parse(string(text))
	if err != nil {
		t.Fatal(err)
	}
	orn := filepath.Join(t.TempDir(), "saxpy.orn")
	if err := os.WriteFile(orn, isa.Encode(prog), 0o644); err != nil {
		t.Fatal(err)
	}
	var fromText, fromBinary bytes.Buffer
	if err := run([]string{"compile", "-file", "../../examples/kernels/saxpy.oasm"}, &fromText); err != nil {
		t.Fatalf("compile -file saxpy.oasm: %v", err)
	}
	if err := run([]string{"compile", "-file", orn}, &fromBinary); err != nil {
		t.Fatalf("compile -file saxpy.orn: %v", err)
	}
	if fromText.String() != fromBinary.String() {
		t.Errorf("-file saxpy.orn printed:\n%s-file saxpy.oasm printed:\n%s", &fromBinary, &fromText)
	}
}
