// Package tv is the legality check behind internal/opt's scheduler: it
// decides whether one function is another with the instructions of each
// basic block reordered and no dependence reversed. The check is stated
// without reference to how the order was produced and shares no code with
// the scheduler, so a bug in the scheduler's dependence edges shows here as
// a rejection rather than being repeated.
//
// Validate(pre, post) accepts when
//
//   - the two functions agree on Name, NumArgs, NumVRegs, instruction count
//     and CallBounds;
//   - within every basic block of pre, the same index range of post holds the
//     same instructions (field for field, branch targets included) in some
//     order — so nothing is added, dropped, patched or moved across a block
//     boundary, and the two CFGs coincide;
//   - every pair of pre instructions of one block that conflict keeps its
//     order in post: a write and a later read of one register (true), a read
//     and a later write (anti), two writes (output), two instructions that
//     are not movable (memory, spill-slot, call, barrier and control
//     instructions keep their program order), and the branch or terminator
//     closing the block against everything before it.
//
// Register dependences are taken per single register from the operand
// fields (Src/SrcWidth, Dst/W), so wide operands conflict exactly on the
// registers they share. A per-block permutation that preserves every
// conflicting pair leaves each instruction reading the values it read
// before and the memory, barrier and call trace untouched, which is the
// whole argument (DESIGN.md §16). There are two verdicts and no third: the
// check is total on any pair of functions.
package tv

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/ir"
	"repro/internal/isa"
)

// The names below that the checker itself has no use for — Mode, Hint,
// IdentityHint and the third result of Counters — are pinned by the
// benchmark/ module, which compiles against them and may only change in a
// benchmark PR (ROADMAP item 3).

// Mode selects whether the opt driver validates its schedule.
type Mode uint8

// Validation modes. Strict reverts a rejected schedule; Off skips the check.
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
)

// String returns the verdict name.
func (v Verdict) String() string {
	if v == Accept {
		return "accept"
	}
	return "reject"
}

// Result is one validation outcome; Reason names the reversed edge or the
// structural difference of a rejection and is empty on Accept.
type Result struct {
	Verdict Verdict
	Reason  string
}

// Hint is ignored.
type Hint struct{}

// IdentityHint returns the hint Validate ignores.
func IdentityHint(int) *Hint { return nil }

// Process-wide verdict counters, beside the per-run obs counters the opt
// pipeline emits. Only the benchmark module (its tv.* metrics) and the
// tv-smoke test read them.
var counters struct{ checked, rejected atomic.Uint64 }

// Counters returns the process-wide (checked, rejected) totals; the third
// result is always 0.
func Counters() (checked, rejected, _ uint64) {
	return counters.checked.Load(), counters.rejected.Load(), 0
}

// Validate reports whether post is pre with each basic block permuted and
// every dependence kept (see the package comment). It never panics: nil,
// mismatched and malformed functions are rejected.
func Validate(pre, post *isa.Function, _ *Hint) Result {
	counters.checked.Add(1)
	if why := check(pre, post); why != "" {
		counters.rejected.Add(1)
		return Result{Verdict: Reject, Reason: "tv: " + why}
	}
	return Result{Verdict: Accept}
}

// movable reports whether op only writes a register computed from its
// register and immediate operands (special registers are constants of the
// thread), so that register dependences alone order it.
func movable(op isa.Op) bool {
	switch op {
	case isa.OpIAdd, isa.OpISub, isa.OpIMul, isa.OpIMad, isa.OpIMin, isa.OpIMax,
		isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr, isa.OpISet,
		isa.OpFAdd, isa.OpFSub, isa.OpFMul, isa.OpFFma, isa.OpFMin, isa.OpFMax,
		isa.OpFSet, isa.OpF2I, isa.OpI2F, isa.OpMov, isa.OpMovI, isa.OpRdSp:
		return true
	}
	return false
}

// check returns the reason post is not a dependence-respecting per-block
// permutation of pre, or "".
func check(pre, post *isa.Function) string {
	switch {
	case pre == nil || post == nil:
		return "nil function"
	case pre.Name != post.Name:
		return "function name changed"
	case pre.NumArgs != post.NumArgs:
		return "NumArgs changed"
	case pre.NumVRegs != post.NumVRegs:
		return "NumVRegs changed"
	case len(pre.Instrs) != len(post.Instrs):
		return fmt.Sprintf("instruction count changed (%d vs %d)", len(pre.Instrs), len(post.Instrs))
	case !slices.Equal(pre.CallBounds, post.CallBounds):
		return "CallBounds changed"
	case len(pre.Instrs) == 0:
		return "" // nothing to permute, and ir.BuildCFG wants an entry instruction
	}
	if pre.CallBounds != nil && !slices.Equal(pre.Instrs, post.Instrs) {
		// The callee's frame overlays the caller's registers from the bound
		// up, so a call touches registers its operand fields do not name.
		return "function carries CallBounds: only the identity is accepted"
	}
	// ir.BuildCFG indexes by branch target and the tables below by register:
	// reject a target outside the function and size the tables by the
	// operands themselves, whatever frame size the header declares.
	n, nv := len(pre.Instrs), 0
	for i := range pre.Instrs {
		in := &pre.Instrs[i]
		if in.IsBranch() && (in.Tgt < 0 || int(in.Tgt) >= n) {
			return fmt.Sprintf("pre[%d] %s: branch target %d out of range", i, in.Op, in.Tgt)
		}
		if in.HasDst() {
			nv = max(nv, int(in.Dst)+in.W())
		}
		for s := 0; s < in.NumSrcs(); s++ {
			nv = max(nv, int(in.Src[s])+in.SrcWidth(s))
		}
	}

	pos := make([]int, n)    // pos[k]: index in post of pre instruction k
	taken := make([]bool, n) // taken[k]: pre instruction k has its post match
	// lastW[r] is the latest pre instruction so far to write register r and
	// lastR[r] the one, among those reading r since, that post places latest.
	// An entry below the current block's start is left over from an earlier
	// block and counts as absent.
	lastW, lastR := make([]int, nv), make([]int, nv)
	for r := range lastW {
		lastW[r], lastR[r] = -1, -1
	}
	for bi, b := range ir.BuildCFG(pre).Blocks {
		// Match each post instruction to the earliest unmatched equal pre
		// instruction. Equal instructions of one block always conflict (they
		// write the same register or are both non-movable), so theirs is the
		// only assignment that could be legal.
		lo := b.Start
		for j := b.Start; j < b.End; j++ {
			k := lo
			for k < b.End && (taken[k] || pre.Instrs[k] != post.Instrs[j]) {
				k++
			}
			if k == b.End {
				return fmt.Sprintf("block %d: post[%d] %s has no counterpart in the block (added, patched or moved across a block boundary)",
					bi, j, post.Instrs[j].Op)
			}
			taken[k], pos[k] = true, j
			for lo < b.End && taken[lo] {
				lo++
			}
		}

		// reversed reports the edge from pre instruction e (if it belongs to
		// this block) to k when post no longer has e first; r is the register
		// the edge is on, or -1.
		reversed := func(kind string, r, e, k int) string {
			if e < b.Start || pos[e] < pos[k] {
				return ""
			}
			if r >= 0 {
				kind = fmt.Sprintf("%s dependence on v%d", kind, r)
			}
			return fmt.Sprintf("block %d: %s reversed: pre[%d] %s now follows pre[%d] %s",
				bi, kind, e, pre.Instrs[e].Op, k, pre.Instrs[k].Op)
		}
		pinned := -1 // latest non-movable instruction of the block so far
		for k := b.Start; k < b.End; k++ {
			in := &pre.Instrs[k]
			dst, dstEnd := 0, 0
			if in.HasDst() {
				dst, dstEnd = int(in.Dst), int(in.Dst)+in.W()
			}
			// Check k's writes, then check and record its reads, then record
			// its writes: an instruction that reads a register it overwrites
			// does not conflict with itself.
			for r := dst; r < dstEnd; r++ {
				if why := reversed("output", r, lastW[r], k); why != "" {
					return why
				}
				if why := reversed("anti", r, lastR[r], k); why != "" {
					return why
				}
			}
			for s := 0; s < in.NumSrcs(); s++ {
				for r, end := int(in.Src[s]), int(in.Src[s])+in.SrcWidth(s); r < end; r++ {
					if why := reversed("true", r, lastW[r], k); why != "" {
						return why
					}
					if e := lastR[r]; e < b.Start || pos[e] < pos[k] {
						lastR[r] = k
					}
				}
			}
			for r := dst; r < dstEnd; r++ {
				lastW[r], lastR[r] = k, -1
			}
			if !movable(in.Op) {
				if why := reversed("effect order", -1, pinned, k); why != "" {
					return why
				}
				pinned = k
			}
		}
		last := b.End - 1
		if in := &pre.Instrs[last]; (in.IsBranch() || in.Terminates()) && pos[last] != last {
			return fmt.Sprintf("block %d: terminator pre[%d] %s no longer closes the block", bi, last, in.Op)
		}
	}
	return ""
}
