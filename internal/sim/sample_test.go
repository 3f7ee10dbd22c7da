package sim

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestSampleBoundedAndExact drives one SM's sampler through synthetic
// runs of 200 000–300 000 cycles (over 3 000 samples at 64 cycles, with
// skip-ahead jumps): it never holds more than maxSamples per track, and
// coarsened to the launch's interval its samples and unsampled remainder
// equal those of a sampler that ran at that interval from the start,
// including runs whose last samples form a partial group.
func TestSampleBoundedAndExact(t *testing.T) {
	type state struct {
		now, instrs uint64
		live        int
		mshr        []uint64
	}
	partial := 0
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		end := uint64(200_000 + rng.Intn(100_000))
		var states []state
		var now, instrs uint64
		for now < end {
			if rng.Intn(50) == 0 {
				now += uint64(rng.Intn(5000))
			} else {
				now += uint64(1 + rng.Intn(40))
			}
			instrs += uint64(rng.Intn(5))
			mshr := make([]uint64, rng.Intn(4))
			for i := range mshr {
				mshr[i] = now + uint64(rng.Intn(300))
			}
			states = append(states, state{now, instrs, rng.Intn(65), mshr})
		}
		run := func(p *smProf) {
			sm := &smCtx{}
			for _, s := range states {
				sm.live, sm.st.instructions, sm.mshr = s.live, s.instrs, s.mshr
				p.sample(sm, s.now)
				if len(p.resident) > maxSamples {
					t.Fatalf("seed %d: %d samples at cycle %d", seed, len(p.resident), s.now)
				}
			}
		}
		fine := &smProf{interval: sampleBase, nextSample: sampleBase}
		run(fine)
		iv := uint64(sampleBase)
		for iv*256 < now {
			iv *= 2
		}
		if fine.interval >= iv {
			t.Fatalf("seed %d: sampler at interval %d already, launch interval %d", seed, fine.interval, iv)
		}
		coarse := &smProf{interval: iv, nextSample: iv}
		run(coarse)
		f := int(iv / fine.interval)
		if len(fine.resident)%f != 0 {
			partial++
		}
		fine.coarsen(f)
		fine.nextSample = coarse.nextSample // the coarsened sampler is done
		if !reflect.DeepEqual(fine, coarse) {
			t.Fatalf("seed %d: coarsened samples differ from sampling at %d cycles:\n%+v\n%+v", seed, iv, fine, coarse)
		}
	}
	if partial == 0 {
		t.Fatal("no run ended in a partial group")
	}
}
