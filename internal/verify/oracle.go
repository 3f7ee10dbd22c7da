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
// used more than an eighth of (see executionFailure). A lane-aware
// program's stream holds every active lane's stores in lane order, so one
// comparison covers both kinds of program.
//
// Differential executes orig on every call. Callers that check several
// realizations of one program build one Reference and Check each.
func Differential(orig, realized *isa.Program, gridWarps, stepLimit int) []Violation {
	return NewReference(orig, gridWarps, stepLimit).Check(realized)
}

// Reference is the original program's half of the differential oracle,
// executed once: the per-warp global-store streams, or the fact that the
// original cannot run and the oracle abstains. It depends only on (orig,
// grid, step limit) and is immutable once built, so one Reference serves
// every realization of orig, from any number of goroutines.
type Reference struct {
	orig      *isa.Program
	gridWarps int
	stepLimit int

	// streams holds each warp's flat [addr, word...] store records; nil
	// when the original cannot run and the oracle abstains.
	streams  [][]uint32
	maxSteps int // the original's largest per-warp step count
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
	// An original that cannot run leaves streams nil: the oracle abstains.
	r.streams, r.maxSteps, _ = storeStreams(orig, r.gridWarps, r.stepLimit)
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
	if r.streams == nil {
		return nil // no reference: the input program itself cannot run
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
// store stream as flat [addr, word...] records through the run's store
// sink; no instruction is resolved into an Event. It also returns the
// largest per-warp step count.
func storeStreams(p *isa.Program, gridWarps, stepLimit int) ([][]uint32, int, error) {
	streams := make([][]uint32, gridWarps)
	res, err := interp.Run(&interp.Launch{Prog: p, GridWarps: gridWarps}, stepLimit,
		func(warp int, addr uint32, words []uint32) {
			streams[warp] = append(append(streams[warp], addr), words...)
		})
	if err != nil {
		return nil, 0, fmt.Errorf("verify: %w", err)
	}
	return streams, slices.Max(res.WarpSteps), nil
}
