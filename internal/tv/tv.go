// Package tv implements translation validation for the middle end: a
// per-pass symbolic equivalence checker over the web-split form that
// internal/opt transforms. Each pass application is checked as a
// (pre, post) function pair sharing one virtual-register space (the post
// side may add fresh temporaries); the validator symbolically executes
// both sides block by block, turning pure computations into normalized
// hash-consed value terms and memory/barrier/call traffic into a
// sequenced effect chain, and demands that at every corresponding block
// boundary the two sides observe the same world: identical effect
// sequences (opcode, operands, widths, offsets), identical branch
// conditions and corresponding branch targets, and identical return
// values.
//
// Correspondence between the two CFGs is near-identity — the rewrites it
// covers insert straight-line code, patch operands, drop dead
// definitions, and permute within blocks, but never restructure control
// flow — and is supplied by the pass driver as an untrusted position hint
// (insert/own position maps; internal/opt's scheduler only permutes
// within blocks and supplies the identity hint). A wrong
// hint can only make validation fail; it can never make a wrong program
// pass, because every claim the hint encodes (which post-side cut
// corresponds to which pre-side block) is itself checked during the walk.
//
// Verdicts are three-valued. Accept means the symbolic states matched
// everywhere. Reject means a concrete refutation was found: either a
// structural divergence (effect sequence or control shape changed, which
// no opt pass legitimately does) or a term mismatch that a quick-check
// concrete evaluator separated on random inputs — a real miscompile.
// Abstain means the terms differ syntactically but no concrete input
// separated them: normalizer incompleteness, and the caller falls back
// to the dynamic differential oracle.
package tv

import (
	"fmt"
	"sync/atomic"
)

// Mode selects how the opt driver uses validation verdicts.
type Mode uint8

// Validation modes. Strict reverts rejected pass applications; Off skips
// validation.
const (
	ModeOff Mode = iota
	ModeStrict
)

// Verdict is the outcome of one validation.
type Verdict uint8

// Verdict values.
const (
	Accept Verdict = iota
	Reject
	Abstain
)

// String returns the verdict name.
func (v Verdict) String() string {
	switch v {
	case Accept:
		return "accept"
	case Reject:
		return "reject"
	case Abstain:
		return "abstain"
	}
	return fmt.Sprintf("verdict(%d)", uint8(v))
}

// Result reports one validation outcome with its diagnostic: the pre-side
// block and instruction region where the first divergence was found and a
// human-readable reason naming the first differing term or structure.
type Result struct {
	Verdict Verdict
	Reason  string // empty on Accept
	Block   int    // pre-side block id of the divergence (-1 when n/a)
}

// Hint is the driver-supplied correspondence between pre-side instruction
// indices and post-side positions. For a pre function of n instructions
// both slices have n+1 entries: InsPos[i] is the post position of the
// first instruction inserted before pre instruction i (the default branch
// landing point), OwnPos[i] is the post position of pre instruction i
// itself (the landing point for branches that skip the inserts); entry n
// is the post function length. The hint is untrusted input: validation
// re-derives and checks every consequence of it.
type Hint struct {
	InsPos []int
	OwnPos []int
}

// IdentityHint returns the hint for a post function whose block leaders
// coincide with the pre function's (in-block permutations, no inserts or
// drops).
func IdentityHint(n int) *Hint {
	h := &Hint{InsPos: make([]int, n+1), OwnPos: make([]int, n+1)}
	for i := 0; i <= n; i++ {
		h.InsPos[i] = i
		h.OwnPos[i] = i
	}
	return h
}

// Process-wide verdict counters, surfaced by orion-bench -json and the
// serve /metrics endpoint in addition to the per-run obs counters the opt
// driver emits.
var counters struct{ checked, rejected, abstained atomic.Uint64 }

// Counters returns the process-wide (checked, rejected, abstained)
// validation totals.
func Counters() (checked, rejected, abstained uint64) {
	return counters.checked.Load(), counters.rejected.Load(), counters.abstained.Load()
}

// ResetCounters zeroes the process-wide totals (tests only).
func ResetCounters() {
	counters.checked.Store(0)
	counters.rejected.Store(0)
	counters.abstained.Store(0)
}
