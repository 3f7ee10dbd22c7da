package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// call is one in-flight computation: the job context it runs under, the
// number of request handlers waiting on it, and its eventual result.
// val and err are written exactly once, before done is closed, so
// waiters read them without locking.
type call struct {
	cancel  context.CancelFunc
	waiters int // guarded by Flight.mu
	done    chan struct{}
	val     []byte
	err     error
}

// Flight coalesces concurrent requests for the same artifact key into
// one pool task, layered over the daemon's single-flight realize memo
// (core.Caches): where the memo dedupes individual realizations, Flight
// dedupes whole requests, so sixty-four identical POSTs cost one tune.
//
// Cancellation is refcounted: each waiter that gives up (client
// disconnect) decrements the count, and when the last one leaves, the
// job's context is cancelled — pending ladder work for a request nobody
// wants anymore is abandoned. The key is removed from the group at the
// same moment, so a fresh request starts a fresh computation instead of
// joining a dying one.
type Flight struct {
	mu    sync.Mutex
	calls map[string]*call

	started   atomic.Uint64
	coalesced atomic.Uint64
	abandoned atomic.Uint64
}

// NewFlight returns an empty coalescing group.
func NewFlight() *Flight {
	return &Flight{calls: make(map[string]*call)}
}

// FlightStats is a point-in-time snapshot of the group's counters.
type FlightStats struct {
	Started   uint64 `json:"started"`
	Coalesced uint64 `json:"coalesced"`
	Abandoned uint64 `json:"abandoned"`
}

// Stats snapshots the group's counters.
func (f *Flight) Stats() FlightStats {
	return FlightStats{
		Started:   f.started.Load(),
		Coalesced: f.coalesced.Load(),
		Abandoned: f.abandoned.Load(),
	}
}

// Do returns fn's result for key, coalescing concurrent callers: the
// first caller submits fn to the pool, later callers wait on the same
// entry. fn runs under a job context detached from any one request and
// cancelled when the last waiter leaves; it must return promptly once
// that context is done. A caller whose own ctx ends first gets ctx's
// error while the computation (if others still want it) continues. A
// panic in fn reaches every caller as an error and is not remembered.
//
// When the pool is saturated, every caller joined to the failed submit
// observes ErrBusy, which the HTTP layer turns into 429.
func (f *Flight) Do(ctx context.Context, key string, pool *Pool, fn func(context.Context) ([]byte, error)) ([]byte, error) {
	f.mu.Lock()
	c, joined := f.calls[key]
	if joined {
		c.waiters++
		f.mu.Unlock()
		f.coalesced.Add(1)
	} else {
		jobCtx, cancel := context.WithCancel(context.Background())
		c = &call{cancel: cancel, waiters: 1, done: make(chan struct{})}
		f.calls[key] = c
		f.mu.Unlock()
		f.started.Add(1)
		// finish unlinks the key and hands the outcome to every waiter.
		finish := func(val []byte, err error) {
			f.mu.Lock()
			if f.calls[key] == c {
				delete(f.calls, key)
			}
			f.mu.Unlock()
			c.val, c.err = val, err
			close(c.done)
			cancel()
		}
		run := func() {
			var val []byte
			var err error
			// A panic in fn is this request's failure, not the daemon's:
			// every waiter gets one error (a 500), the next request for the
			// key recomputes, and the pool worker lives on.
			defer func() {
				if r := recover(); r != nil {
					val, err = nil, fmt.Errorf("serve: job panicked: %v", r)
				}
				finish(val, err)
			}()
			val, err = fn(jobCtx)
		}
		if err := pool.Submit(jobCtx, run); err != nil {
			// Callers may have joined between registration and the failed
			// Submit; deliver the admission error to all of them.
			finish(nil, err)
		}
	}

	select {
	case <-c.done:
		return c.val, c.err
	case <-ctx.Done():
		f.leave(key, c)
		return nil, ctx.Err()
	}
}

// leave records that one waiter gave up on c. The last waiter out
// cancels the job and unlinks the key so new requests recompute.
func (f *Flight) leave(key string, c *call) {
	f.mu.Lock()
	c.waiters--
	last := c.waiters == 0
	if last && f.calls[key] == c {
		delete(f.calls, key)
	}
	f.mu.Unlock()
	if last {
		f.abandoned.Add(1)
		c.cancel()
	}
}
