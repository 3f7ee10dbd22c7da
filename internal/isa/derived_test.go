package isa

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

type derivedTestKey struct{ n int }

// TestDerivedOncePerProgram pins Program.Derived: one build per (program,
// key) however many goroutines race the first call, the build's error
// handed to every caller, and nothing carried over by Clone, Encode/Decode
// or Format/Parse.
func TestDerivedOncePerProgram(t *testing.T) {
	p := MustParse(".kernel k\n.func main\n EXIT\n")
	var builds atomic.Int32
	errBuild := errors.New("build failed")

	const callers = 8
	vals := make([]any, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			vals[g], _ = p.Derived(derivedTestKey{0}, func() (any, error) {
				builds.Add(1)
				return new(int), nil
			})
			_, errs[g] = p.Derived(derivedTestKey{1}, func() (any, error) {
				builds.Add(1)
				return nil, errBuild
			})
		}(g)
	}
	wg.Wait()
	if got := builds.Load(); got != 2 {
		t.Errorf("%d builds for two keys, want 2", got)
	}
	for g := range vals {
		if vals[g] != vals[0] {
			t.Errorf("caller %d got a different value", g)
		}
		if errs[g] != errBuild {
			t.Errorf("caller %d got error %v, want the build's", g, errs[g])
		}
	}

	dec, err := Decode(Encode(p))
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(Format(p))
	if err != nil {
		t.Fatal(err)
	}
	for name, q := range map[string]*Program{"Clone": p.Clone(), "Decode": dec, "Parse": parsed} {
		v, _ := q.Derived(derivedTestKey{0}, func() (any, error) { return new(int), nil })
		if v == vals[0] {
			t.Errorf("%s shares a derived value with the original", name)
		}
	}

	// A build that panics stores nothing; the next caller builds again.
	func() {
		defer func() { _ = recover() }()
		_, _ = p.Derived(derivedTestKey{2}, func() (any, error) { panic("boom") })
	}()
	v, err := p.Derived(derivedTestKey{2}, func() (any, error) { return 7, nil })
	if v != 7 || err != nil {
		t.Errorf("after a panicking build: %v, %v; want 7, nil", v, err)
	}
}
