package verify

import (
	"errors"
	"fmt"

	"repro/internal/interp"
	"repro/internal/isa"
	"repro/internal/prof"
)

// BlockOracle functionally executes the warps of a single thread block
// and checks the observed schedule for the two dynamic failure modes the
// static analyzer (internal/sa) proves absent: warps disagreeing on how
// many barriers they execute ("dyn-barrier-divergence"), and shared-
// memory accesses from different warps in the same barrier interval
// whose byte ranges overlap with at least one store ("dyn-shared-race").
// It is the dynamic half of the analyzer's differential tests: a nil
// result means the executed path exhibited neither defect — it says
// nothing about unexecuted paths. Spill traffic is ignored (spill slots
// are per-thread by construction).
//
// Lane-aware (LANEID) programs are checked for barrier divergence only:
// the 32-lane executor itself faults when a diverged warp reaches a BAR.
func BlockOracle(p *isa.Program, stepLimit int) ([]Violation, error) {
	if err := isa.Validate(p); err != nil {
		return nil, err
	}
	wpb := p.BlockDim / 32
	if wpb < 1 {
		wpb = 1
	}
	lc := &interp.Launch{Prog: p, GridWarps: wpb}
	if p.UsesLaneID() {
		_, err := interp.Run(lc, stepLimit, nil)
		if errors.Is(err, interp.ErrDivergedBarrier) {
			return []Violation{{Invariant: "dyn-barrier-divergence", Func: p.Entry().Name, Detail: err.Error()}}, nil
		}
		if err != nil {
			return nil, fmt.Errorf("verify: %w", err)
		}
		return nil, nil
	}

	layout, err := interp.NewLayout(p)
	if err != nil {
		return nil, err
	}
	sharedWords := (p.SharedBytes + 3) / 4
	var shared []uint32
	if sharedWords > 0 {
		shared = make([]uint32, sharedWords)
	}

	type access struct {
		warp, interval int
		lo, hi         uint32
		write          bool
		pc             int32 // flat (isa.Program.PCBases)
	}
	var accs []access
	bars := make([]int, wpb)
	for wi := 0; wi < wpb; wi++ {
		w, err := interp.NewWarp(lc, layout, wi, shared)
		if err != nil {
			return nil, err
		}
		for steps := 0; !w.Done(); steps++ {
			if steps >= stepLimit {
				return nil, fmt.Errorf("verify: warp %d: %w", wi, interp.ErrStepLimit)
			}
			ev, err := w.Step()
			if err != nil {
				return nil, fmt.Errorf("verify: warp %d: %w", wi, err)
			}
			switch {
			case ev.Kind == interp.KindBarrier:
				bars[wi]++
			case ev.Space == interp.SpaceShared && ev.Instr != nil && !ev.Instr.IsSpill() && ev.Bytes > 0:
				accs = append(accs, access{
					warp: wi, interval: bars[wi],
					lo: ev.Addr, hi: ev.Addr + uint32(ev.Bytes) - 1,
					write: ev.Kind == interp.KindStore, pc: ev.PC,
				})
			}
		}
	}

	var out []Violation
	for wi := 1; wi < wpb; wi++ {
		if bars[wi] != bars[0] {
			out = append(out, Violation{
				Invariant: "dyn-barrier-divergence",
				Func:      p.Entry().Name,
				Detail: fmt.Sprintf("warp 0 executed %d barriers, warp %d executed %d",
					bars[0], wi, bars[wi]),
			})
			break
		}
	}
	ix := prof.NewIndex(p)
	const maxRaces = 20
	races := 0
	for i := 0; i < len(accs) && races < maxRaces; i++ {
		for j := i + 1; j < len(accs) && races < maxRaces; j++ {
			a, b := accs[i], accs[j]
			if a.warp == b.warp || a.interval != b.interval || (!a.write && !b.write) {
				continue
			}
			if a.lo <= b.hi && b.lo <= a.hi {
				races++
				fa, pa, _ := ix.Locate(int(a.pc))
				fb, pb, _ := ix.Locate(int(b.pc))
				out = append(out, Violation{
					Invariant: "dyn-shared-race",
					Func:      fa.Name,
					Detail: fmt.Sprintf(
						"warp %d %s[%d] bytes [%d,%d] overlaps warp %d %s[%d] bytes [%d,%d] in barrier interval %d",
						a.warp, fa.Name, pa, a.lo, a.hi,
						b.warp, fb.Name, pb, b.lo, b.hi, a.interval),
				})
			}
		}
	}
	return out, nil
}
