package memo

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDoComputesOncePerKey(t *testing.T) {
	c := New[int, int]()
	var calls atomic.Int32
	fn := func() (int, error) { calls.Add(1); return 42, nil }
	for i := 0; i < 5; i++ {
		v, err := c.Do(7, fn)
		if err != nil || v != 42 {
			t.Fatalf("Do = %d, %v", v, err)
		}
	}
	if calls.Load() != 1 {
		t.Errorf("fn ran %d times, want 1", calls.Load())
	}
	hits, misses := c.Stats()
	if hits != 4 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 4/1", hits, misses)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

func TestErrorsAreCached(t *testing.T) {
	c := New[string, int]()
	boom := errors.New("boom")
	var calls int
	for i := 0; i < 3; i++ {
		_, err := c.Do("k", func() (int, error) { calls++; return 0, boom })
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want boom", err)
		}
	}
	if calls != 1 {
		t.Errorf("fn ran %d times, want 1 (deterministic failures are cacheable)", calls)
	}
}

func TestReset(t *testing.T) {
	c := New[int, int]()
	c.Do(1, func() (int, error) { return 1, nil })
	c.Do(1, func() (int, error) { return 1, nil })
	c.Reset()
	if h, m := c.Stats(); h != 0 || m != 0 {
		t.Errorf("stats after reset = %d/%d", h, m)
	}
	if c.Len() != 0 {
		t.Errorf("Len after reset = %d", c.Len())
	}
	var calls int
	c.Do(1, func() (int, error) { calls++; return 1, nil })
	if calls != 1 {
		t.Errorf("entry survived reset")
	}
}

func TestSingleFlightUnderConcurrency(t *testing.T) {
	c := New[int, int]()
	var calls atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 8; k++ {
				v, err := c.Do(k, func() (int, error) { calls.Add(1); return k * 10, nil })
				if err != nil || v != k*10 {
					t.Errorf("Do(%d) = %d, %v", k, v, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if calls.Load() != 8 {
		t.Errorf("fn ran %d times, want once per key (8)", calls.Load())
	}
}

// TestPanicDropsEntryAndPropagates is the regression test for the
// panic-poisoning bug: a panicking fn used to mark the entry done with a
// zero value and nil error, so every later Do on the key silently
// returned garbage. Now the panic propagates and the entry is dropped, so
// a later Do recomputes.
func TestPanicDropsEntryAndPropagates(t *testing.T) {
	c := New[int, int]()
	mustPanic := func() (v any) {
		defer func() { v = recover() }()
		c.Do(1, func() (int, error) { panic("boom") })
		return nil
	}
	if got := mustPanic(); got != "boom" {
		t.Fatalf("first Do recovered %v, want boom", got)
	}
	if c.Len() != 0 {
		t.Fatalf("poisoned entry survived: Len = %d, want 0", c.Len())
	}
	// The key is recomputable — no silent zero value.
	v, err := c.Do(1, func() (int, error) { return 99, nil })
	if err != nil || v != 99 {
		t.Fatalf("Do after panic = %d, %v, want 99, nil", v, err)
	}
}

// TestPanicPropagatesToWaiters: callers already blocked on a key whose
// computation panics observe the same panic, not a zero value.
func TestPanicPropagatesToWaiters(t *testing.T) {
	c := New[int, int]()
	entered := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	panics := make(chan any, 9)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() { panics <- recover() }()
		c.Do(1, func() (int, error) {
			close(entered)
			<-release
			panic("boom")
		})
	}()
	<-entered
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { panics <- recover() }()
			c.Do(1, func() (int, error) { return 0, nil })
		}()
	}
	// Give the waiters a moment to join the in-flight entry, then let the
	// computation panic. Waiters that instead recompute (entry already
	// dropped) legitimately recover nil — only joined waiters must see the
	// panic; the filler always does.
	close(release)
	wg.Wait()
	close(panics)
	sawBoom := 0
	for v := range panics {
		if v == "boom" {
			sawBoom++
		} else if v != nil {
			t.Errorf("unexpected panic value %v", v)
		}
	}
	if sawBoom == 0 {
		t.Error("no goroutine observed the panic")
	}
	if c.Len() != 0 && c.Len() != 1 {
		t.Errorf("Len = %d after panic round", c.Len())
	}
}

// TestResetWaitsForInflight is the regression test for the Reset race: a
// Reset racing an in-flight Do used to let the old entry complete
// invisibly while a new entry recomputed the key, so one process could
// observe two distinct results for one fingerprint. Reset now waits.
func TestResetWaitsForInflight(t *testing.T) {
	c := New[int, int]()
	entered := make(chan struct{})
	release := make(chan struct{})
	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		v, _ := c.Do(1, func() (int, error) {
			close(entered)
			<-release
			return 10, nil
		})
		if v != 10 {
			t.Errorf("in-flight Do = %d, want 10", v)
		}
	}()
	<-entered
	resetDone := make(chan struct{})
	go func() {
		defer close(resetDone)
		c.Reset()
	}()
	select {
	case <-resetDone:
		t.Fatal("Reset returned while a computation was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-resetDone
	<-firstDone
	// After Reset has returned, the key recomputes: no stale value can
	// appear after the reset point.
	var calls int
	v, _ := c.Do(1, func() (int, error) { calls++; return 20, nil })
	if v != 20 || calls != 1 {
		t.Errorf("post-Reset Do = %d (calls %d), want fresh 20", v, calls)
	}
}

// TestResetDoRace hammers Do and Reset concurrently; run under -race.
// Every Do must observe a value its own generation could have produced
// (the generation counter only moves forward), and nothing may deadlock.
func TestResetDoRace(t *testing.T) {
	c := New[int, uint64]()
	var gen atomic.Uint64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for k := 0; k < 4; k++ {
					before := gen.Load()
					v, err := c.Do(k, func() (uint64, error) { return gen.Load(), nil })
					if err != nil {
						t.Errorf("Do err = %v", err)
						return
					}
					// The observed value was computed at some generation >=
					// one that existed before this call joined it... it can
					// never exceed the current generation.
					if v > gen.Load() || (v+8 < before) {
						t.Errorf("Do(%d) = generation %d, current %d, before %d", k, v, gen.Load(), before)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		gen.Add(1)
		c.Reset()
	}
	close(stop)
	wg.Wait()
}
