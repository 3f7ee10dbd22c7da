package sa

// Definite-use checks: may-uninitialized reads (forward definite-
// assignment with intersection meet, over register and spill slots),
// dead stores (backward slot liveness), and unreachable blocks.

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/isa"
)

func (fa *funcAnalysis) checkUnreachable() {
	for bi := range fa.cfg.Blocks {
		b := &fa.cfg.Blocks[bi]
		if b.Start < len(fa.cfg.BlockOf) && fa.cfg.BlockOf[b.Start] == -1 {
			fa.addDiag(CodeUnreachable, bi, b.Start,
				fmt.Sprintf("instructions [%d,%d) are unreachable from function entry", b.Start, b.End))
		}
	}
}

// Slot indexing for the definite-assignment bitsets: registers first,
// then shared spill slots, then local spill slots.
func (fa *funcAnalysis) slotCount() int { return fa.nreg + fa.f.SpillShared + fa.f.SpillLocal }
func (fa *funcAnalysis) shSlot(s int) int {
	return fa.nreg + s
}
func (fa *funcAnalysis) locSlot(s int) int {
	return fa.nreg + fa.f.SpillShared + s
}

// slotName names a slot index for a diagnostic; it inverts the indexing
// above and runs only when a finding is reported.
func (fa *funcAnalysis) slotName(slot int) string {
	switch {
	case slot < fa.nreg:
		return fmt.Sprintf("v%d", slot)
	case slot < fa.nreg+fa.f.SpillShared:
		return fmt.Sprintf("shared spill slot %d", slot-fa.nreg)
	default:
		return fmt.Sprintf("local spill slot %d", slot-fa.nreg-fa.f.SpillShared)
	}
}

// assignStep updates the definitely-assigned set for one instruction.
func (fa *funcAnalysis) assignStep(bits ir.BitSet, in *isa.Instr, pc int) {
	w := in.W()
	switch in.Op {
	case isa.OpSpillSS:
		for i := 0; i < w; i++ {
			if s := int(in.Imm) + i; s >= 0 && s < fa.f.SpillShared {
				bits.Set(fa.shSlot(s))
			}
		}
		return
	case isa.OpSpillLS:
		for i := 0; i < w; i++ {
			if s := int(in.Imm) + i; s >= 0 && s < fa.f.SpillLocal {
				bits.Set(fa.locSlot(s))
			}
		}
		return
	case isa.OpCall:
		// The callee may leave anything in the registers above the
		// compressed-stack bound.
		for r := fa.callClobber(pc); r < fa.nreg; r++ {
			bits.Clear(r)
		}
	}
	if in.HasDst() && in.Dst != isa.RegNone {
		for i := 0; i < w; i++ {
			if r := int(in.Dst) + i; r < fa.nreg {
				bits.Set(r)
			}
		}
	}
}

// readSlots calls fn with every slot index an instruction reads.
func (fa *funcAnalysis) readSlots(in *isa.Instr, fn func(slot int)) {
	switch in.Op {
	case isa.OpSpillSL:
		for i := 0; i < in.W(); i++ {
			if s := int(in.Imm) + i; s >= 0 && s < fa.f.SpillShared {
				fn(fa.shSlot(s))
			}
		}
		return
	case isa.OpSpillLL:
		for i := 0; i < in.W(); i++ {
			if s := int(in.Imm) + i; s >= 0 && s < fa.f.SpillLocal {
				fn(fa.locSlot(s))
			}
		}
		return
	}
	for s := 0; s < 3; s++ {
		r := in.Src[s]
		if r == isa.RegNone {
			continue
		}
		wd := in.SrcWidth(s)
		for i := 0; i < wd; i++ {
			if slot := int(r) + i; slot < fa.nreg {
				fn(slot)
			}
		}
	}
}

// checkUninit flags reads of slots not assigned on every path from the
// function entry.
func (fa *funcAnalysis) checkUninit() {
	n := fa.slotCount()
	if n == 0 {
		return
	}
	nb := len(fa.cfg.Blocks)
	in := make([]ir.BitSet, nb)
	entry := ir.NewBitSet(n)
	for a := 0; a < fa.f.NumArgs && a < fa.nreg; a++ {
		entry.Set(a)
	}
	in[0] = entry

	transfer := func(bi int, bits ir.BitSet) ir.BitSet {
		out := bits.Clone()
		b := &fa.cfg.Blocks[bi]
		for pc := b.Start; pc < b.End; pc++ {
			fa.assignStep(out, &fa.f.Instrs[pc], pc)
		}
		return out
	}
	for changed := true; changed; {
		changed = false
		for _, bi := range fa.cfg.RPO {
			if in[bi] == nil {
				continue
			}
			out := transfer(bi, in[bi])
			for _, s := range fa.cfg.Blocks[bi].Succs {
				if in[s] == nil {
					in[s] = out.Clone()
					changed = true
				} else if in[s].AndWith(out) {
					changed = true
				}
			}
		}
	}

	// Reporting pass.
	for _, bi := range fa.cfg.RPO {
		if in[bi] == nil {
			continue
		}
		bits := in[bi].Clone()
		b := &fa.cfg.Blocks[bi]
		for pc := b.Start; pc < b.End; pc++ {
			instr := &fa.f.Instrs[pc]
			reported := false
			fa.readSlots(instr, func(slot int) {
				if reported || bits.Has(slot) {
					return
				}
				reported = true
				fa.addDiag(CodeUninit, bi, pc, fmt.Sprintf(
					"%s may be read before it is assigned on some path", fa.slotName(slot)))
			})
			fa.assignStep(bits, instr, pc)
		}
	}
}

// checkDeadStores flags pure register definitions whose results can
// never be observed. Calls conservatively keep every register alive (the
// callee's compressed frame and the copy traffic around call sites are
// not modeled), so only stores dead within call-free regions are
// reported. Spill-slot stores are never flagged.
//
// Allocated functions are exempt: the spiller rematerializes constants
// at live-range splits, and a remat the chosen coloring made redundant
// is genuinely dead yet not a defect anyone can act on — it is the
// allocator's residue, not the kernel author's (DESIGN.md §11).
func (fa *funcAnalysis) checkDeadStores() {
	if fa.f.Allocated {
		return
	}
	n := fa.nreg
	if n == 0 {
		return
	}
	nb := len(fa.cfg.Blocks)
	liveIn := make([]ir.BitSet, nb)
	full := ir.NewBitSet(n)
	for i := 0; i < n; i++ {
		full.Set(i)
	}

	backward := func(bi int, liveOut ir.BitSet, report bool) ir.BitSet {
		live := liveOut.Clone()
		b := &fa.cfg.Blocks[bi]
		for pc := b.End - 1; pc >= b.Start; pc-- {
			in := &fa.f.Instrs[pc]
			if in.Op == isa.OpCall {
				live.CopyFrom(full)
				continue
			}
			if in.HasDst() && in.Dst != isa.RegNone {
				dead := true
				for i := 0; i < in.W(); i++ {
					if r := int(in.Dst) + i; r < n && live.Has(r) {
						dead = false
						break
					}
				}
				if dead && report {
					fa.addDiag(CodeDeadStore, bi, pc, fmt.Sprintf(
						"result v%d is never used", in.Dst))
				}
				for i := 0; i < in.W(); i++ {
					if r := int(in.Dst) + i; r < n {
						live.Clear(r)
					}
				}
			}
			fa.readSlots(in, func(slot int) {
				if slot < n {
					live.Set(slot)
				}
			})
		}
		return live
	}

	for changed := true; changed; {
		changed = false
		for i := len(fa.cfg.RPO) - 1; i >= 0; i-- {
			bi := fa.cfg.RPO[i]
			liveOut := ir.NewBitSet(n)
			for _, s := range fa.cfg.Blocks[bi].Succs {
				if liveIn[s] != nil {
					liveOut.OrWith(liveIn[s])
				}
			}
			li := backward(bi, liveOut, false)
			if liveIn[bi] == nil {
				liveIn[bi] = li
				changed = true
			} else if liveIn[bi].OrWith(li) {
				changed = true
			}
		}
	}

	for _, bi := range fa.cfg.RPO {
		liveOut := ir.NewBitSet(n)
		for _, s := range fa.cfg.Blocks[bi].Succs {
			if liveIn[s] != nil {
				liveOut.OrWith(liveIn[s])
			}
		}
		backward(bi, liveOut, true)
	}
}
