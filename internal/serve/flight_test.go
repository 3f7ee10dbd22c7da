package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/isa"
)

// TestFlightCoalesces: N concurrent callers for one key cost one fn run,
// and all observe the same bytes.
func TestFlightCoalesces(t *testing.T) {
	p := NewPool(2, 8)
	defer p.Close()
	f := NewFlight()
	var runs atomic.Int32
	entered := make(chan struct{})
	release := make(chan struct{})
	fn := func(ctx context.Context) ([]byte, error) {
		if runs.Add(1) == 1 {
			close(entered)
		}
		<-release
		return []byte("result"), nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := f.Do(context.Background(), "k", p, fn)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(v, []byte("result")) {
				errs <- fmt.Errorf("got %q", v)
			}
		}()
	}
	<-entered
	// Hold the computation open until every caller has joined it, so none
	// arrives late and legitimately starts a second run.
	for st := f.Stats(); st.Started+st.Coalesced < 16; st = f.Stats() {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if runs.Load() != 1 {
		t.Errorf("fn ran %d times, want 1", runs.Load())
	}
	st := f.Stats()
	if st.Started != 1 || st.Started+st.Coalesced != 16 {
		t.Errorf("stats = %+v, want 1 started / 15 coalesced", st)
	}
}

func TestFlightDistinctKeys(t *testing.T) {
	p := NewPool(4, 16)
	defer p.Close()
	f := NewFlight()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		key := fmt.Sprintf("key-%d", g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := f.Do(context.Background(), key, p, func(ctx context.Context) ([]byte, error) {
				return []byte(key), nil
			})
			if err != nil || string(v) != key {
				t.Errorf("Do(%s) = %q, %v", key, v, err)
			}
		}()
	}
	wg.Wait()
	if st := f.Stats(); st.Started != 8 {
		t.Errorf("started = %d, want 8", st.Started)
	}
}

// TestFlightLastWaiterCancelsJob is the refcounted-cancellation
// contract: when the only caller for a key gives up, the job's context
// is cancelled so the pipeline abandons pending ladder work, and a
// fresh request recomputes rather than joining the dying call.
func TestFlightLastWaiterCancelsJob(t *testing.T) {
	p := NewPool(1, 4)
	defer p.Close()
	f := NewFlight()
	jobCancelled := make(chan struct{})
	entered := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := f.Do(ctx, "k", p, func(jobCtx context.Context) ([]byte, error) {
			close(entered)
			<-jobCtx.Done()
			close(jobCancelled)
			return nil, jobCtx.Err()
		})
		done <- err
	}()
	<-entered
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned Do = %v, want context.Canceled", err)
	}
	select {
	case <-jobCancelled:
	case <-time.After(2 * time.Second):
		t.Fatal("job context was not cancelled after the last waiter left")
	}
	// The key is free again: a new request computes fresh.
	v, err := f.Do(context.Background(), "k", p, func(context.Context) ([]byte, error) {
		return []byte("fresh"), nil
	})
	if err != nil || string(v) != "fresh" {
		t.Fatalf("post-abandon Do = %q, %v", v, err)
	}
	if f.Stats().Abandoned != 1 {
		t.Errorf("abandoned = %d, want 1", f.Stats().Abandoned)
	}
}

// TestFlightWaiterLeavesOthersContinue: one of two waiters cancelling
// must not take the computation down with it.
func TestFlightWaiterLeavesOthersContinue(t *testing.T) {
	p := NewPool(1, 4)
	defer p.Close()
	f := NewFlight()
	entered := make(chan struct{})
	release := make(chan struct{})
	fn := func(ctx context.Context) ([]byte, error) {
		close(entered)
		select {
		case <-release:
			return []byte("ok"), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	stay := make(chan error, 1)
	go func() {
		v, err := f.Do(context.Background(), "k", p, fn)
		if err == nil && string(v) != "ok" {
			err = fmt.Errorf("got %q", v)
		}
		stay <- err
	}()
	<-entered
	ctx, cancel := context.WithCancel(context.Background())
	leave := make(chan error, 1)
	go func() {
		_, err := f.Do(ctx, "k", p, fn)
		leave <- err
	}()
	// Wait until the second caller has joined (coalesced counter moves).
	for f.Stats().Coalesced == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-leave; !errors.Is(err, context.Canceled) {
		t.Fatalf("leaver = %v, want context.Canceled", err)
	}
	close(release)
	if err := <-stay; err != nil {
		t.Fatalf("stayer = %v, want success", err)
	}
}

// TestFlightBusyPropagates: when the pool rejects the submit, every
// caller already joined to the entry observes ErrBusy.
func TestFlightBusyPropagates(t *testing.T) {
	p := NewPool(1, 0)
	defer p.Close()
	f := NewFlight()
	release := make(chan struct{})
	started := make(chan struct{})
	// With a zero-depth queue, Submit lands only while the worker is
	// parked on the channel — poll until the freshly started worker is.
	for p.Submit(context.Background(), func() { close(started); <-release }) != nil {
		time.Sleep(time.Millisecond)
	}
	<-started // pool saturated: no workers free, zero queue
	_, err := f.Do(context.Background(), "k", p, func(context.Context) ([]byte, error) {
		return []byte("x"), nil
	})
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("Do on saturated pool = %v, want ErrBusy", err)
	}
	close(release)
	// Once the pool frees up, the same key works again. With a zero-depth
	// queue, Submit succeeds only while a worker is parked on the channel,
	// so poll briefly until the released worker gets back there.
	deadline := time.Now().Add(2 * time.Second)
	for {
		v, err := f.Do(context.Background(), "k", p, func(context.Context) ([]byte, error) {
			return []byte("x"), nil
		})
		if err == nil {
			if string(v) != "x" {
				t.Fatalf("retry Do = %q", v)
			}
			break
		}
		if !errors.Is(err, ErrBusy) || time.Now().After(deadline) {
			t.Fatalf("retry Do err = %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFlightPanicContained: a panic in fn is the request's failure, not
// the daemon's. The leader and both joiners get the same error, the single
// worker survives to count the task completed, and the key is unlinked so
// the next Do recomputes.
func TestFlightPanicContained(t *testing.T) {
	p := NewPool(1, 8)
	defer p.Close()
	f := NewFlight()
	entered := make(chan struct{})
	release := make(chan struct{})
	boom := func(context.Context) ([]byte, error) {
		close(entered)
		<-release
		panic("compiler bug")
	}
	errs := make(chan error, 3)
	for g := 0; g < 3; g++ {
		go func() {
			_, err := f.Do(context.Background(), "k", p, boom)
			errs <- err
		}()
	}
	<-entered
	for st := f.Stats(); st.Started+st.Coalesced < 3; st = f.Stats() {
		time.Sleep(time.Millisecond)
	}
	close(release)
	for g := 0; g < 3; g++ {
		if err := <-errs; err == nil || !strings.Contains(err.Error(), "compiler bug") {
			t.Errorf("caller %d: err = %v, want the panic reported as an error", g, err)
		}
	}
	if st := f.Stats(); st.Started != 1 || st.Coalesced != 2 {
		t.Errorf("stats = %+v, want one run joined by two", st)
	}
	v, err := f.Do(context.Background(), "k", p, func(context.Context) ([]byte, error) {
		return []byte("fresh"), nil
	})
	if err != nil || string(v) != "fresh" {
		t.Fatalf("Do after the panic = %q, %v; want a fresh computation on the surviving worker", v, err)
	}
	// The one worker counted the panicked task before it took the fresh one.
	if st := p.Stats(); st.Completed == 0 {
		t.Error("the panicked task was not counted completed")
	}
}

// TestTraceTunePanicContained: the ?trace=1 path runs through the flight
// under a private key, so the flight's containment covers it. A request
// whose program makes Tune panic gets a 500 naming the panic, and the
// daemon's only worker goes on to serve the next request.
func TestTraceTunePanicContained(t *testing.T) {
	s := New(Config{Workers: 1, Queue: 8})
	hs := httptest.NewServer(s.Handler())
	defer func() {
		hs.Close()
		s.Close()
	}()
	// No upload gets a function-less slot past Validate; the request is
	// built by hand to stand in for a compiler bug.
	broken := &request{
		params: Params{Kernel: "boom", Device: "gtx680", Grid: 128, Iters: 4},
		prog:   &isa.Program{Name: "boom", BlockDim: 32, Funcs: []*isa.Function{nil}},
		dev:    device.GTX680(),
		cache:  device.SmallCache,
		trace:  true,
	}
	w := httptest.NewRecorder()
	s.tuneTraced(w, httptest.NewRequest(http.MethodPost, "/v1/tune?trace=1", nil), broken)
	if w.Code != http.StatusInternalServerError || !strings.Contains(w.Body.String(), "serve: job panicked") {
		t.Fatalf("traced tune of a panicking program = %d %q, want a 500 naming the panic", w.Code, w.Body)
	}
	code, _, data := post(t, hs.URL, "/v1/tune?grid=128&iters=4&trace=1", testKernel)
	if code != http.StatusOK {
		t.Fatalf("traced tune after the panic = %d: %s; want the surviving worker to serve it", code, data)
	}
	// The one worker counted the panicked task before it took the next one.
	if st := s.pool.Stats(); st.Completed == 0 {
		t.Error("the panicked task was not counted completed")
	}
}

// TestFlightStress hammers one group from many goroutines with
// overlapping keys and random cancellation; run under -race.
func TestFlightStress(t *testing.T) {
	p := NewPool(4, 64)
	defer p.Close()
	f := NewFlight()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("k%d", i%5)
				ctx := context.Background()
				var cancel context.CancelFunc
				if (g+i)%7 == 0 {
					ctx, cancel = context.WithCancel(ctx)
					cancel() // join-and-leave immediately
				}
				v, err := f.Do(ctx, key, p, func(jobCtx context.Context) ([]byte, error) {
					if jobCtx.Err() != nil {
						return nil, jobCtx.Err()
					}
					return []byte(key), nil
				})
				if err == nil && string(v) != key {
					t.Errorf("Do(%s) = %q", key, v)
					return
				}
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Errorf("Do(%s) err = %v", key, err)
					return
				}
				if cancel != nil {
					cancel()
				}
			}
		}(g)
	}
	wg.Wait()
}
