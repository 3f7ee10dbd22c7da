package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
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
