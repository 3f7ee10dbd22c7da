package regalloc

import (
	"slices"

	"repro/internal/ir"
	"repro/internal/isa"
)

// Copy coalescing (the paper's reference [9], Hack & Goos): the coloring
// phase is biased toward assigning move-related variables the same
// register, and moves whose source and destination end up identical are
// elided from the final code.

// movePairs collects move-related variable pairs (full-width register
// moves only; partial moves into wide groups must stay).
func movePairs(v *ir.Vars) map[int][]int {
	pairs := map[int][]int{}
	for i := range v.F.Instrs {
		in := &v.F.Instrs[i]
		if in.Op != isa.OpMov {
			continue
		}
		d, full := v.DefOf(in)
		if d < 0 || !full {
			continue
		}
		s := v.VarAt(in.Src[0])
		if s == d || v.Defs[s].Width != v.Defs[d].Width {
			continue
		}
		if int(in.Src[0]) != int(v.Defs[s].Base) {
			continue // source is a slice of a wider group
		}
		pairs[d] = append(pairs[d], s)
		pairs[s] = append(pairs[s], d)
	}
	return pairs
}

// preferredColors appends to out the colors of v's already-colored move
// partners (deduplicated, in partner order).
func preferredColors(out []int, id int, pairs map[int][]int, color []int) []int {
	for _, p := range pairs[id] {
		if c := color[p]; c >= 0 && !slices.Contains(out, c) {
			out = append(out, c)
		}
	}
	return out
}

// ElideCoalescedMoves removes full-width register moves whose destination
// and source were colored identically (they are no-ops after allocation).
// Branch targets are re-indexed. Returns the number of moves removed.
func ElideCoalescedMoves(f *isa.Function) int {
	removed := 0
	old := f.Instrs
	newIndex := make([]int, len(old)+1)
	kept := make([]isa.Instr, 0, len(old))
	for i := range old {
		newIndex[i] = len(kept)
		in := old[i]
		if in.Op == isa.OpMov && in.Dst == in.Src[0] {
			removed++
			continue
		}
		kept = append(kept, in)
	}
	newIndex[len(old)] = len(kept)
	if removed == 0 {
		return 0
	}
	// A branch that targeted an elided move lands on the next kept
	// instruction (the move was a no-op, so semantics are unchanged).
	for i := range kept {
		if kept[i].IsBranch() {
			kept[i].Tgt = int32(newIndex[kept[i].Tgt])
		}
	}
	f.Instrs = kept
	return removed
}
