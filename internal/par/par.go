// Package par is the bounded fan-out primitive shared by the compiler
// (per-candidate realization), the occupancy sweep, and the experiment
// suite. Work items are indexed; callers collect results into
// index-addressed slots, so the output order never depends on goroutine
// scheduling — parallel runs are byte-identical to serial ones.
package par

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// ItemPanic wraps a panic raised by one work item so the caller sees
// which item failed and the worker's stack, not the ForEach plumbing's.
type ItemPanic struct {
	// Index is the work item whose fn call panicked.
	Index int
	// Value is the original panic value.
	Value any
	// Stack is the panicking worker goroutine's stack trace.
	Stack []byte
}

// Error formats the wrapped panic; ItemPanic also satisfies error so
// recover() sites can errors.As it.
func (p *ItemPanic) Error() string {
	return fmt.Sprintf("par: item %d panicked: %v\n%s", p.Index, p.Value, p.Stack)
}

// ForEach runs fn(i) for every i in [0, n) on at most workers goroutines
// and returns when all calls have finished. workers <= 0 means
// GOMAXPROCS; workers == 1 runs inline (no goroutines), which keeps
// single-threaded paths allocation-free and trivially serial.
//
// A panic inside fn does not crash the worker pool: the first panicking
// item (lowest index among those that panicked) is captured, remaining
// items are skipped, and once every in-flight call has returned, ForEach
// re-panics on the caller's goroutine with an *ItemPanic carrying the
// item index, the original value, and the worker's stack. Inline runs
// (workers == 1) panic the same way, so the contract is mode-independent.
func ForEach(workers, n int, fn func(i int)) {
	// context.Background is never done, so the error is statically nil.
	_ = ForEachCtx(context.Background(), workers, n, fn)
}

// ForEachCtx is ForEach with cancellation: once ctx is done, no further
// item is dispatched (items already running finish — fn is not
// interrupted) and ForEachCtx returns ctx.Err(). It returns nil when
// every item ran. The panic contract is ForEach's: a panicking item still
// stops dispatch and re-panics on the caller's goroutine with an
// *ItemPanic, taking precedence over a concurrent cancellation.
func ForEachCtx(ctx context.Context, workers, n int, fn func(i int)) error {
	if n <= 0 {
		return nil
	}
	done := ctx.Done() // nil for Background: cancellation checks vanish
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if done != nil {
				select {
				case <-done:
					return ctx.Err()
				default:
				}
			}
			runItem(i, fn)
		}
		return nil
	}
	var next int
	var canceled bool
	var mu sync.Mutex
	var wg sync.WaitGroup
	var firstPanic *ItemPanic // guarded by mu, like next and canceled
	// panicked stops dispatch: protectItem raises it as soon as an item's
	// panic is recovered, before the 64 KiB stack capture.
	var panicked atomic.Bool
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				stop := panicked.Load() || canceled
				i := next
				if !stop && i < n && done != nil {
					select {
					case <-done:
						canceled = true
						stop = true
					default:
					}
				}
				if !stop && i < n {
					next++
				}
				mu.Unlock()
				if stop || i >= n {
					return
				}
				if p := protectItem(i, fn, &panicked); p != nil {
					mu.Lock()
					if firstPanic == nil || p.Index < firstPanic.Index {
						firstPanic = p
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstPanic != nil {
		panic(firstPanic)
	}
	if canceled {
		return ctx.Err()
	}
	return nil
}

// runItem is the inline-mode item call: it wraps a raw panic in
// *ItemPanic (at the panic site, so the stack is intact) and lets it
// propagate immediately.
func runItem(i int, fn func(i int)) {
	defer func() {
		if v := recover(); v != nil {
			panic(wrapPanic(i, v))
		}
	}()
	fn(i)
}

// protectItem runs one item and converts a panic into a returned
// *ItemPanic instead of unwinding the worker, raising panicked first.
func protectItem(i int, fn func(i int), panicked *atomic.Bool) (p *ItemPanic) {
	defer func() {
		if v := recover(); v != nil {
			panicked.Store(true)
			p = wrapPanic(i, v)
		}
	}()
	fn(i)
	return nil
}

// wrapPanic builds the ItemPanic for item i, capturing the current
// goroutine's stack. A value that is already an *ItemPanic (a nested
// ForEach) passes through untouched so the innermost item is reported.
func wrapPanic(i int, v any) *ItemPanic {
	if p, ok := v.(*ItemPanic); ok {
		return p
	}
	buf := make([]byte, 64<<10)
	buf = buf[:runtime.Stack(buf, false)]
	return &ItemPanic{Index: i, Value: v, Stack: buf}
}
