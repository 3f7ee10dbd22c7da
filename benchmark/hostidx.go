package main

import (
	"sort"
	"time"
)

// The hosts this benchmark runs on are small shared virtual machines, and
// their speed is not constant: neighbours on the same cores slow everything
// down by 10 to 60 % for stretches of seconds to minutes (a run of one
// commit and one seed measured 0.94 s per compile pass at 18:45 and 1.50 s
// at 19:45). No bound a regression gate could use survives that, so every
// time this program reports is divided by the host's slowdown while it was
// measured: the time a fixed piece of work, the host index, took then, over
// the time it takes on a quiet host. Across those same two stretches the
// corrected pass time stayed within 3 %.
//
// The index is a few hundred microseconds of the kind of work the program
// under test does (map updates, a sort, a pointer chase over freshly
// allocated nodes), run between timed regions, never inside one.

// referenceIndexUS is the index on a quiet host of the kind this was sized
// on (2 vCPUs of a 2.1 GHz Xeon). On another kind of host every reported
// time is scaled by one constant, which no comparison of two commits on the
// same hosts sees.
const referenceIndexUS = 300

var indexSink int

func hostIndex() float64 {
	start := time.Now()
	m := make(map[uint32]uint32, 1024)
	x := uint32(2463534242)
	for i := 0; i < 3000; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		m[x&4095] += x
	}
	s := make([]int, 0, len(m))
	for k, v := range m {
		s = append(s, int(k^v))
	}
	sort.Ints(s)
	type node struct {
		next *node
		v    int
	}
	var head *node
	for _, v := range s {
		head = &node{head, v}
	}
	t := 0
	for r := 0; r < 4; r++ {
		for n := head; n != nil; n = n.next {
			t += n.v
		}
	}
	indexSink += t
	return float64(time.Since(start).Nanoseconds()) / 1e3
}

// hostClock collects index samples over a stretch of measurement.
type hostClock struct {
	samples []float64
	last    time.Time
}

// tick takes a sample unless one was taken in the last 20 ms, which keeps
// the index under 2 % of the run however short the operations are.
func (h *hostClock) tick() {
	if now := time.Now(); now.Sub(h.last) >= 20*time.Millisecond {
		h.samples = append(h.samples, hostIndex())
		h.last = time.Now()
	}
}

// slowdown is the host's slowdown over the samples since the last call:
// their median over the reference. It takes a sample if there is none.
func (h *hostClock) slowdown() float64 {
	if len(h.samples) == 0 {
		h.samples = append(h.samples, hostIndex())
	}
	f := median(h.samples) / referenceIndexUS
	h.samples = h.samples[:0]
	return f
}
