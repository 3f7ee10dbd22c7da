package sim

import (
	"math"
	"math/bits"
)

const (
	// maxSlots is the widest residency the scheduler's slot bitmaps index
	// (no device in device.All() holds more than 64 warps per SM).
	maxSlots = 64
	// wheelSpan is the timing wheel's reach in cycles (a power of two):
	// long enough that only DRAM-queue-bound wakes land in the far set.
	wheelSpan = 1024
	wheelMask = wheelSpan - 1
)

// asleep is the stamp of a slot that is in no set: a finished warp, or
// one parked at a barrier until releaseBarrier files it.
const asleep = uint64(math.MaxUint64)

// wakeSet orders one SM's warp slots by wake stamp, so the issue loop
// only ever looks at warps that can issue. Every slot with a stamp other
// than asleep is in exactly one place:
//
//   - ready, if stamp <= now (a warp leaves ready when it is attempted);
//   - wheel[stamp&wheelMask], if now < stamp < now+wheelSpan — all stamps
//     in that window have distinct residues, so a bucket holds one stamp;
//   - far, otherwise; farMin is the smallest stamp there, and advance
//     moves a far slot into the wheel once it comes within the span.
//
// summary has one bit per non-empty bucket, so the earliest wake after
// now is a handful of word tests rather than a walk over the warps.
type wakeSet struct {
	now     uint64
	ready   uint64
	far     uint64
	farMin  uint64
	summary [wheelSpan / 64]uint64
	stamp   [maxSlots]uint64
	wheel   [wheelSpan]uint64
}

// file records that slot (currently in no set) wakes at cycle t.
func (w *wakeSet) file(slot int, t uint64) {
	w.stamp[slot] = t
	bit := uint64(1) << uint(slot)
	switch {
	case t <= w.now:
		w.ready |= bit
	case t-w.now < wheelSpan:
		b := t & wheelMask
		w.wheel[b] |= bit
		w.summary[b>>6] |= 1 << (b & 63)
	default:
		w.far |= bit
		if t < w.farMin {
			w.farMin = t
		}
	}
}

// advance moves the clock to now — the next cycle, or at most next() —
// and adds every slot whose stamp has come due to ready.
func (w *wakeSet) advance(now uint64) {
	w.now = now
	b := now & wheelMask
	if s := w.wheel[b]; s != 0 {
		w.ready |= s
		w.wheel[b] = 0
		w.summary[b>>6] &^= 1 << (b & 63)
	}
	if w.farMin-now < wheelSpan {
		far := w.far
		w.far, w.farMin = 0, asleep
		for ; far != 0; far &= far - 1 {
			slot := bits.TrailingZeros64(far)
			w.file(slot, w.stamp[slot])
		}
	}
}

// next returns the earliest stamp after now, or asleep if no slot is
// waiting: the idle skip-ahead target.
func (w *wakeSet) next() uint64 {
	start := (w.now + 1) & wheelMask
	i := start >> 6
	word := w.summary[i] &^ (1<<(start&63) - 1)
	for k := 0; k <= len(w.summary); k++ {
		if word != 0 {
			b := i<<6 | uint64(bits.TrailingZeros64(word))
			return min(w.now+1+((b-start)&wheelMask), w.farMin)
		}
		i = (i + 1) % uint64(len(w.summary))
		word = w.summary[i]
	}
	return w.farMin
}

// rebuild re-files every slot from its stamp after block retirement has
// renumbered the slots; wakes[i] is slot i's stamp.
func (w *wakeSet) rebuild(wakes []uint64) {
	for i, word := range w.summary {
		for ; word != 0; word &= word - 1 {
			w.wheel[i<<6|bits.TrailingZeros64(word)] = 0
		}
		w.summary[i] = 0
	}
	w.ready, w.far, w.farMin = 0, 0, asleep
	for slot, t := range wakes {
		w.stamp[slot] = t
		if t != asleep {
			w.file(slot, t)
		}
	}
}
