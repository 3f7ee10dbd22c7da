package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/store"
)

// The daemon's time bounds: the request head, head plus body (capped by
// serve's maxBodyBytes), an idle keep-alive connection, and in-flight
// requests after SIGINT/SIGTERM. There is no write timeout: a cold tune
// legitimately runs for seconds before the first response byte.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
	drainTimeout      = 15 * time.Second
)

// runServe implements `orion serve`: the long-running tuning daemon.
// It has its own flag set (daemon knobs, not per-kernel knobs — those
// arrive per request) and runs until SIGINT/SIGTERM, then drains:
// in-flight requests finish, the listener closes, the pool stops.
func runServe(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:9270", "listen address")
	storeDir := fs.String("store", "", "artifact store directory (empty: no persistence, memoization only)")
	workers := fs.Int("workers", 0, "tuning worker pool size (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 64, "pending-request queue depth; a full queue returns 429")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var st *store.Store
	if *storeDir != "" {
		var err error
		if st, err = store.Open(*storeDir); err != nil {
			return err
		}
	}
	srv := serve.New(serve.Config{Store: st, Workers: *workers, Queue: *queue})
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	fmt.Fprintf(out, "orion serve: listening on http://%s (backend %s, store %q)\n",
		ln.Addr(), sim.DefaultBackend(), *storeDir)

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	select {
	case err := <-errc:
		return err
	case s := <-sig:
		fmt.Fprintf(out, "orion serve: %v, draining\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		return hs.Shutdown(ctx)
	}
}
