package verify

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/interp"
	"repro/internal/isa"
)

// defaultOracleSteps bounds the dynamic instructions per warp during a
// differential run; realized binaries execute extra spill and move
// instructions, so the limit is per-side, not shared. The example kernels
// finish in a few thousand steps per warp; the budget mostly caps how long
// the oracle spends on adversarial (fuzz-generated) loops.
const defaultOracleSteps = 200_000

// Differential is the execution oracle: it runs the original and the
// realized program through the functional interpreter on the same launch
// and diffs their global-store streams word for word. Register allocation,
// spilling, and the compressible stack are pure implementation detail —
// the observable output (every store's address and value, in order) must
// be bit-identical.
//
// When the original program fails to execute (step limit, resource
// overflow) no reference exists and the oracle abstains, returning nil;
// a realized program that fails where the original succeeded is a
// violation, unless it only ran out of steps on a budget the original
// used more than an eighth of (see executionFailure). Lane-dependent
// (SIMT) programs are compared by store count and the order-sensitive
// store checksum, which covers the same (address, value) word stream.
//
// Differential executes orig on every call. Callers that check several
// realizations of one program build one Reference and Check each.
func Differential(orig, realized *isa.Program, gridWarps, stepLimit int) []Violation {
	return NewReference(orig, gridWarps, stepLimit).Check(realized)
}

// Reference is the original program's half of the differential oracle,
// executed once: the per-warp global-store streams (or, for a lane-aware
// original, the functional run's result), or the fact that the original
// cannot run and the oracle abstains. It depends only on (orig, grid, step
// limit) and is immutable once built, so one Reference serves every
// realization of orig, from any number of goroutines.
type Reference struct {
	orig      *isa.Program
	gridWarps int
	stepLimit int

	// Exactly one of streams/result is set when ok; neither otherwise.
	ok       bool
	streams  [][]uint32     // warp-scalar original
	result   *interp.Result // lane-aware original
	maxSteps int            // the original's largest per-warp step count
}

// NewReference executes orig on the oracle's launch (gridWarps <= 0: two
// blocks' worth of warps; stepLimit <= 0: defaultOracleSteps per warp) and
// records what every realization will be compared against.
func NewReference(orig *isa.Program, gridWarps, stepLimit int) *Reference {
	r := &Reference{orig: orig, gridWarps: gridWarps, stepLimit: stepLimit}
	if orig == nil {
		return r
	}
	if r.stepLimit <= 0 {
		r.stepLimit = defaultOracleSteps
	}
	if r.gridWarps <= 0 {
		r.gridWarps = 2 * orig.BlockDim / 32
		if r.gridWarps < 2 {
			r.gridWarps = 2 // at least two blocks' worth of sub-warp blocks
		}
	}
	var err error
	if orig.UsesLaneID() {
		r.result, err = interp.Run(&interp.Launch{Prog: orig, GridWarps: r.gridWarps}, r.stepLimit)
		if err == nil {
			r.maxSteps = slices.Max(r.result.WarpSteps)
		}
	} else {
		r.streams, r.maxSteps, err = storeStreams(orig, r.gridWarps, r.stepLimit)
	}
	r.ok = err == nil
	return r
}

// Check executes realized on the reference's launch and reports how its
// global stores differ from the original's; nil means identical, or that
// the oracle abstains (the original cannot run, or realized only ran out
// of steps on a budget the original came near). Check never modifies the
// reference.
func (r *Reference) Check(realized *isa.Program) []Violation {
	if r.orig == nil || realized == nil {
		return []Violation{{Invariant: "differential", Detail: "missing program"}}
	}
	if !r.ok {
		return nil // no reference: the input program itself cannot run
	}
	if r.result != nil || realized.UsesLaneID() {
		return r.checkChecksum(realized)
	}
	got, _, err := storeStreams(realized, r.gridWarps, r.stepLimit)
	if err != nil {
		return executionFailure(err, r.maxSteps, r.stepLimit)
	}
	for wi := range r.streams {
		if v := diffStream(wi, r.streams[wi], got[wi]); v != nil {
			return []Violation{*v}
		}
	}
	return nil
}

// executionFailure classifies a realized program that did not run to
// completion where the original did, whose warps took at most origSteps
// steps each. Realization adds spill and move instructions but never
// changes control flow; over the suite a realized warp runs well under
// twice its original's steps. So a realized warp that exhausts a budget
// of at least eight times origSteps is a runaway (a miscompiled loop)
// and a violation, while a budget the original used more than an eighth
// of proves nothing and the oracle abstains. Any other failure is a
// violation.
func executionFailure(err error, origSteps, stepLimit int) []Violation {
	if errors.Is(err, interp.ErrStepLimit) && origSteps > stepLimit/8 {
		return nil
	}
	return []Violation{{Invariant: "differential",
		Detail: fmt.Sprintf("realized program failed to execute: %v", err)}}
}

// diffStream compares one warp's store streams and describes the first
// divergence. Streams are flat [addr, word...] records.
func diffStream(warp int, want, got []uint32) *Violation {
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		if want[i] != got[i] {
			return &Violation{Invariant: "differential",
				Detail: fmt.Sprintf("warp %d: store stream diverges at word %d: got %#x, want %#x",
					warp, i, got[i], want[i])}
		}
	}
	if len(want) != len(got) {
		return &Violation{Invariant: "differential",
			Detail: fmt.Sprintf("warp %d: %d store words, want %d",
				warp, len(got), len(want))}
	}
	return nil
}

// storeStreams executes every warp of a launch and captures its global
// store stream as flat [addr, word...] records through the warp's store
// sink; no instruction is resolved into an Event. It also returns the
// largest per-warp step count.
func storeStreams(p *isa.Program, gridWarps, stepLimit int) ([][]uint32, int, error) {
	if err := isa.Validate(p); err != nil {
		return nil, 0, err
	}
	layout, err := interp.NewLayout(p)
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
		stream := &streams[wi]
		w.StoreSink = func(addr uint32, words []uint32) {
			*stream = append(append(*stream, addr), words...)
		}
		for !w.Done() {
			if w.Steps >= stepLimit {
				return nil, 0, fmt.Errorf("verify: warp %d: %w", wi, interp.ErrStepLimit)
			}
			if err := w.Advance(); err != nil {
				return nil, 0, fmt.Errorf("verify: warp %d: %w", wi, err)
			}
		}
		maxSteps = max(maxSteps, w.Steps)
	}
	return streams, maxSteps, nil
}

// checkChecksum is the SIMT-mode oracle: full functional runs compared by
// store count and the order-sensitive (address, value) checksum. A
// lane-aware realization of a warp-scalar original (which realization
// never produces) has no stored result to compare with; the original is
// run again for it.
func (r *Reference) checkChecksum(realized *isa.Program) []Violation {
	want := r.result
	if want == nil {
		var err error
		want, err = interp.Run(&interp.Launch{Prog: r.orig, GridWarps: r.gridWarps}, r.stepLimit)
		if err != nil {
			return nil // no reference
		}
	}
	got, err := interp.Run(&interp.Launch{Prog: realized, GridWarps: r.gridWarps}, r.stepLimit)
	if err != nil {
		return executionFailure(err, r.maxSteps, r.stepLimit)
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
