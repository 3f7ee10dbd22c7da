package verify

import (
	"fmt"
	"slices"

	"repro/internal/interp"
	"repro/internal/isa"
)

// LegacyDifferential is the differential oracle as it stood before
// Reference: both programs executed from scratch on every call, every
// instruction resolved through Peek and committed through Step, store
// operands read back with ReadAbsReg. It is kept as the test-only
// reference implementation that Reference.Check must agree with.
func LegacyDifferential(orig, realized *isa.Program, gridWarps, stepLimit int) []Violation {
	if orig == nil || realized == nil {
		return []Violation{{Invariant: "differential", Detail: "missing program"}}
	}
	if stepLimit <= 0 {
		stepLimit = defaultOracleSteps
	}
	if gridWarps <= 0 {
		gridWarps = 2 * orig.BlockDim / 32
		if gridWarps < 2 {
			gridWarps = 2
		}
	}
	if orig.UsesLaneID() || realized.UsesLaneID() {
		want, err := legacyRun(orig, gridWarps, stepLimit)
		if err != nil {
			return nil
		}
		got, err := legacyRun(realized, gridWarps, stepLimit)
		if err != nil {
			return executionFailure(err, slices.Max(want.WarpSteps), stepLimit)
		}
		if got.Stores != want.Stores {
			return []Violation{{Invariant: "differential",
				Detail: fmt.Sprintf("%d stores, want %d", got.Stores, want.Stores)}}
		}
		if got.Checksum != want.Checksum {
			return []Violation{{Invariant: "differential",
				Detail: fmt.Sprintf("store checksum %#x, want %#x", got.Checksum, want.Checksum)}}
		}
		return nil
	}
	want, wantSteps, err := legacyStoreStreams(orig, gridWarps, stepLimit)
	if err != nil {
		return nil
	}
	got, _, err := legacyStoreStreams(realized, gridWarps, stepLimit)
	if err != nil {
		return executionFailure(err, wantSteps, stepLimit)
	}
	for wi := range want {
		if v := diffStream(wi, want[wi], got[wi]); v != nil {
			return []Violation{*v}
		}
	}
	return nil
}

func legacyLayout(p *isa.Program) (*interp.Layout, error) {
	if err := isa.Validate(p); err != nil {
		return nil, err
	}
	layout, err := interp.NewLayout(p)
	if err != nil {
		return nil, err
	}
	return layout, nil
}

func legacyStoreStreams(p *isa.Program, gridWarps, stepLimit int) ([][]uint32, int, error) {
	layout, err := legacyLayout(p)
	if err != nil {
		return nil, 0, err
	}
	lc := &interp.Launch{Prog: p, GridWarps: gridWarps}
	wpb := lc.WarpsPerBlock()
	sharedWords := (p.SharedBytes + 3) / 4
	streams := make([][]uint32, gridWarps)
	maxSteps := 0
	var shared []uint32
	for wi := 0; wi < gridWarps; wi++ {
		if wi%wpb == 0 && sharedWords > 0 {
			shared = make([]uint32, sharedWords)
		}
		w, err := interp.NewWarp(lc, layout, wi, shared)
		if err != nil {
			return nil, 0, err
		}
		var stream []uint32
		for steps := 0; !w.Done(); steps++ {
			if steps >= stepLimit {
				return nil, 0, fmt.Errorf("verify: warp %d: %w", wi, interp.ErrStepLimit)
			}
			ev := w.Peek()
			if ev.Kind == interp.KindStore && ev.Space == interp.SpaceGlobal {
				stream = append(stream, ev.Addr)
				for k := 0; k < ev.Instr.W(); k++ {
					stream = append(stream, w.ReadAbsReg(int(ev.AbsSrc[1])+k))
				}
			}
			if _, err := w.Step(); err != nil {
				return nil, 0, fmt.Errorf("verify: warp %d: %w", wi, err)
			}
		}
		streams[wi] = stream
		maxSteps = max(maxSteps, w.Steps)
	}
	return streams, maxSteps, nil
}

// legacyRun is interp.Run as it was when every warp went through Step:
// the lane-aware half of the old oracle.
func legacyRun(p *isa.Program, gridWarps, stepLimit int) (*interp.Result, error) {
	layout, err := legacyLayout(p)
	if err != nil {
		return nil, err
	}
	lc := &interp.Launch{Prog: p, GridWarps: gridWarps}
	wpb := lc.WarpsPerBlock()
	sharedWords := (p.SharedBytes + 3) / 4
	res := &interp.Result{WarpSteps: make([]int, gridWarps)}
	var shared []uint32
	for wi := 0; wi < gridWarps; wi++ {
		if wi%wpb == 0 && sharedWords > 0 {
			shared = make([]uint32, sharedWords)
		}
		w, err := interp.NewWarp(lc, layout, wi, shared)
		if err != nil {
			return nil, err
		}
		for !w.Done() {
			if w.Steps >= stepLimit {
				return nil, fmt.Errorf("warp %d: %w", wi, interp.ErrStepLimit)
			}
			if _, err := w.Step(); err != nil {
				return nil, fmt.Errorf("warp %d: %w", wi, err)
			}
		}
		res.Checksum ^= interp.MixWarpChecksum(wi, w.Checksum)
		res.Steps += w.Steps
		res.Stores += w.StoreCnt
		res.WarpSteps[wi] = w.Steps
	}
	return res, nil
}
