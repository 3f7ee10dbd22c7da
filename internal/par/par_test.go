package par

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachCoversAllIndicesOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 100} {
		const n = 53
		counts := make([]atomic.Int32, n)
		ForEach(workers, n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Errorf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestForEachZeroItems(t *testing.T) {
	ran := false
	ForEach(4, 0, func(int) { ran = true })
	if ran {
		t.Error("fn ran with n=0")
	}
}

func TestForEachSerialIsInline(t *testing.T) {
	// workers=1 must preserve submission order (it runs inline).
	var order []int
	ForEach(1, 5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if i != v {
			t.Fatalf("serial order = %v", order)
		}
	}
}

// catchPanic runs f and returns the recovered *ItemPanic (nil if f did
// not panic, fatal if it panicked with anything else).
func catchPanic(t *testing.T, f func()) (p *ItemPanic) {
	t.Helper()
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		var ok bool
		p, ok = v.(*ItemPanic)
		if !ok {
			t.Fatalf("panic value is %T, want *ItemPanic", v)
		}
	}()
	f()
	return nil
}

func TestForEachRecoversWorkerPanic(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		const n = 40
		const bad = 17
		var after atomic.Int32
		p := catchPanic(t, func() {
			ForEach(workers, n, func(i int) {
				if i == bad {
					panic("boom")
				}
				if i > bad {
					after.Add(1)
				}
			})
		})
		if p == nil {
			t.Fatalf("workers=%d: ForEach did not re-panic", workers)
		}
		if p.Index != bad {
			t.Errorf("workers=%d: panic index = %d, want %d", workers, p.Index, bad)
		}
		if p.Value != "boom" {
			t.Errorf("workers=%d: panic value = %v", workers, p.Value)
		}
		if !strings.Contains(string(p.Stack), "TestForEachRecoversWorkerPanic") {
			t.Errorf("workers=%d: stack does not reach the panic site:\n%s", workers, p.Stack)
		}
		if !strings.Contains(p.Error(), "item 17 panicked: boom") {
			t.Errorf("workers=%d: Error() = %q", workers, p.Error())
		}
		if workers == 1 && after.Load() != 0 {
			t.Errorf("inline mode ran %d items after the panic", after.Load())
		}
	}
}

func TestForEachPanicStopsDispatch(t *testing.T) {
	// After an item panics, workers must stop pulling new items; every
	// item that did run before the stop still completes exactly once. The
	// other items wait for item 0 to reach its panic and then take 100 µs
	// each, so running all of them would need a second while the stop is
	// raised within microseconds: the assertion does not rest on which
	// worker the scheduler favours.
	const n = 10000
	var ran atomic.Int32
	reached := make(chan struct{})
	p := catchPanic(t, func() {
		ForEach(2, n, func(i int) {
			if i == 0 {
				close(reached)
				panic("early")
			}
			<-reached
			time.Sleep(100 * time.Microsecond)
			ran.Add(1)
		})
	})
	if p == nil || p.Index != 0 {
		t.Fatalf("panic = %+v, want index 0", p)
	}
	if got := ran.Load(); int(got) >= n-1 {
		t.Errorf("dispatch did not stop: %d of %d items ran after the panic", got, n-1)
	}
}

func TestForEachNestedPanicKeepsInnermostItem(t *testing.T) {
	// A nested ForEach's ItemPanic must pass through the outer loop
	// untouched, so the report names the innermost failing item.
	p := catchPanic(t, func() {
		ForEach(2, 4, func(i int) {
			ForEach(1, 3, func(j int) {
				if j == 2 {
					panic("inner")
				}
			})
		})
	})
	if p == nil {
		t.Fatal("no panic surfaced")
	}
	if p.Index != 2 || p.Value != "inner" {
		t.Errorf("panic = index %d value %v, want inner item 2", p.Index, p.Value)
	}
}

// TestForEachCtxCancelDuringDispatch is the regression test for the
// no-cancellation gap: cancelling the context mid-run must stop further
// dispatch (some items never run), let in-flight items finish, and
// surface ctx.Err() — the behaviour a cancelled serve request depends on.
func TestForEachCtxCancelDuringDispatch(t *testing.T) {
	const n = 1000
	ctx, cancel := context.WithCancel(context.Background())
	var started, finished atomic.Int32
	release := make(chan struct{})
	var once sync.Once
	err := ForEachCtx(ctx, 4, n, func(i int) {
		started.Add(1)
		once.Do(func() {
			cancel()
			close(release)
		})
		<-release
		finished.Add(1)
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s := started.Load(); s >= n {
		t.Errorf("all %d items were dispatched despite cancellation", s)
	}
	if s, f := started.Load(), finished.Load(); s != f {
		t.Errorf("in-flight items did not finish: started %d, finished %d", s, f)
	}
}

// TestForEachCtxInlineCancel covers the workers==1 inline path: a cancel
// raised by item i prevents item i+1 from running.
func TestForEachCtxInlineCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran []int
	err := ForEachCtx(ctx, 1, 10, func(i int) {
		ran = append(ran, i)
		if i == 3 {
			cancel()
		}
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(ran) != 4 {
		t.Errorf("ran %v, want items 0..3 only", ran)
	}
}

// TestForEachCtxCompletes: an uncancelled context runs every item and
// returns nil, for both inline and parallel modes.
func TestForEachCtxCompletes(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var count atomic.Int32
		if err := ForEachCtx(context.Background(), workers, 100, func(i int) { count.Add(1) }); err != nil {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		if count.Load() != 100 {
			t.Errorf("workers=%d: ran %d items, want 100", workers, count.Load())
		}
	}
}

// TestForEachCtxPanicBeatsCancel: when an item panics and the context is
// also cancelled, the panic wins (it carries more information).
func TestForEachCtxPanicBeatsCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer func() {
		p, ok := recover().(*ItemPanic)
		if !ok || p.Index != 2 {
			t.Errorf("recover = %v, want ItemPanic at 2", p)
		}
	}()
	ForEachCtx(ctx, 1, 10, func(i int) {
		if i == 2 {
			cancel()
			panic("boom")
		}
	})
	t.Error("no panic surfaced")
}
