package sim

import (
	"math/rand"
	"testing"
)

// wakeModel is the naive reference for wakeSet: one stamp per slot
// (asleep when the slot is in no set) and a linear scan per question.
type wakeModel struct {
	now   uint64
	stamp []uint64
}

func (m *wakeModel) ready() uint64 {
	var r uint64
	for s, t := range m.stamp {
		if t <= m.now {
			r |= 1 << uint(s)
		}
	}
	return r
}

func (m *wakeModel) next() uint64 {
	best := asleep
	for _, t := range m.stamp {
		if t > m.now && t < best {
			best = t
		}
	}
	return best
}

// TestWakeSetMatchesLinearScan drives a wakeSet the way the issue loop
// does — take a ready slot, file it again or park it, advance by a cycle
// or skip to next(), renumber on retirement — with stamps drawn to hit
// the wheel's edges, and compares every answer with the naive model.
func TestWakeSetMatchesLinearScan(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(maxSlots)
		if seed%5 == 0 {
			n = maxSlots
		}
		ws := &wakeSet{farMin: asleep}
		m := &wakeModel{stamp: make([]uint64, n)}
		// delta draws a wake distance: mostly the next few cycles, with
		// the wheel's boundary (span-1, span, span+1), stamps that share
		// a bucket a whole number of spans apart, and far stamps that
		// must migrate before they come due.
		delta := func() uint64 {
			switch r.Intn(12) {
			case 0:
				return wheelSpan - 1
			case 1:
				return wheelSpan
			case 2:
				return wheelSpan + 1
			case 3:
				return uint64(1+r.Intn(3))*wheelSpan + 7
			case 4:
				return uint64(r.Intn(5 * wheelSpan))
			case 5:
				return 0 // due already: straight to ready
			default:
				return uint64(1 + r.Intn(40))
			}
		}
		file := func(s int) {
			at := m.now + delta()
			ws.file(s, at)
			m.stamp[s] = at
		}
		for s := 0; s < n; s++ {
			file(s)
		}
		check := func(step int, what string) {
			t.Helper()
			if got, want := ws.ready, m.ready(); got != want {
				t.Fatalf("seed %d step %d after %s at cycle %d: ready %064b, want %064b", seed, step, what, m.now, got, want)
			}
			if got, want := ws.next(), m.next(); got != want {
				t.Fatalf("seed %d step %d after %s at cycle %d: next %d, want %d", seed, step, what, m.now, got, want)
			}
			for s, at := range m.stamp {
				if ws.stamp[s] != at {
					t.Fatalf("seed %d step %d after %s: slot %d stamp %d, want %d", seed, step, what, s, ws.stamp[s], at)
				}
			}
		}
		check(0, "launch")
		for step := 1; step <= 4000; step++ {
			// Attempt some ready slots: each leaves ready, then is filed
			// with a new stamp or parked (in no set).
			for s := 0; s < n; s++ {
				bit := uint64(1) << uint(s)
				if ws.ready&bit == 0 || r.Intn(3) == 0 {
					continue
				}
				ws.ready &^= bit
				if r.Intn(8) == 0 {
					ws.stamp[s], m.stamp[s] = asleep, asleep
				} else {
					file(s)
				}
			}
			// Release some parked slots.
			for s := 0; s < n; s++ {
				if m.stamp[s] == asleep && r.Intn(4) == 0 {
					file(s)
				}
			}
			check(step, "issue")
			// A retirement drops some slots and renumbers the rest.
			if r.Intn(50) == 0 {
				keep := m.stamp[:0]
				for _, at := range m.stamp {
					if r.Intn(4) != 0 {
						keep = append(keep, at)
					}
				}
				// A replacement block launches next cycle, except in the
				// tail of the grid, where the residency shrinks.
				for len(keep) < n && (len(keep) == 0 || r.Intn(6) != 0) {
					keep = append(keep, m.now+1)
				}
				m.stamp, n = keep, len(keep)
				ws.rebuild(m.stamp)
				check(step, "rebuild")
			}
			// Advance one cycle, or skip: to next() or short of it.
			to := m.now + 1
			if nx := m.next(); nx != asleep && r.Intn(3) == 0 {
				to = nx
				if r.Intn(4) == 0 {
					to = m.now + 1 + uint64(r.Int63n(int64(nx-m.now)))
				}
			}
			m.now = to
			ws.advance(to)
			check(step, "advance")
		}
	}
}
