package isa

import (
	"errors"
	"fmt"
	"slices"
)

// ErrRecursion is returned when the call graph contains a cycle; OASM,
// like the paper's GPU target, forbids recursion so that frame bases can
// be assigned statically.
var ErrRecursion = errors.New("isa: recursive call graph")

// ErrSpillOverlap is wrapped when one function's spill accesses in one
// space touch slot ranges that are neither identical nor disjoint. Each
// spilled value owns its run of slots, so a partial overlap means two
// differently shaped values share storage; the allocation verifier
// reports it as its spill-slots invariant.
var ErrSpillOverlap = errors.New("isa: partially overlapping spill ranges")

// Validate checks structural invariants of a program: opcode validity,
// branch targets in range, call targets defined and non-recursive, widths
// legal, the entry function taking no args, every path ending in a
// terminator, a kernel that reads LANEID being one call-free function, and
// all operands in bounds — registers within the declared frame (NumVRegs
// before allocation, FrameSlots after), spill slots within the declared
// spill counts, and call bounds within the frame — and spill ranges
// identical or disjoint (ErrSpillOverlap). Operand bounds make decoded
// binaries safe to feed to the middle end and the interpreter:
// out-of-range registers or slots would otherwise index past internal
// arrays.
func Validate(p *Program) error {
	if len(p.Funcs) == 0 {
		return errors.New("isa: program has no functions")
	}
	if p.BlockDim <= 0 || p.BlockDim%32 != 0 {
		return fmt.Errorf("isa: block dim %d must be a positive multiple of 32", p.BlockDim)
	}
	names := make(map[string]bool, len(p.Funcs))
	for _, f := range p.Funcs {
		if f.Name == "" {
			return errors.New("isa: function with empty name")
		}
		if names[f.Name] {
			return fmt.Errorf("isa: duplicate function %q", f.Name)
		}
		names[f.Name] = true
	}
	if p.Entry().NumArgs != 0 {
		return fmt.Errorf("isa: entry %q must take no arguments", p.Entry().Name)
	}
	for fi, f := range p.Funcs {
		if err := validateFunc(p, fi, f); err != nil {
			return err
		}
	}
	if err := checkLaneVariant(p); err != nil {
		return err
	}
	return checkAcyclic(p)
}

// checkLaneVariant holds a kernel that reads LANEID to what lane-accurate
// execution supports: a single function without calls (divergent call
// stacks are out of scope). The error names the first offending call, or
// the second function, and the LANEID read that makes the kernel
// lane-variant.
func checkLaneVariant(p *Program) error {
	lf, li := p.laneIDRead()
	if lf == nil {
		return nil
	}
	const rule = "lane-variant kernels must be a single function without calls"
	for _, f := range p.Funcs {
		for i := range f.Instrs {
			if f.Instrs[i].Op == OpCall {
				return fmt.Errorf("isa: %s[%d]: CALL in a kernel that reads LANEID (%s[%d]): %s",
					f.Name, i, lf.Name, li, rule)
			}
		}
	}
	if len(p.Funcs) > 1 {
		return fmt.Errorf("isa: function %q in a kernel that reads LANEID (%s[%d]): %s",
			p.Funcs[1].Name, lf.Name, li, rule)
	}
	return nil
}

func validateFunc(p *Program, fi int, f *Function) error {
	if len(f.Instrs) == 0 {
		return fmt.Errorf("isa: function %q is empty", f.Name)
	}
	// Registers live in the virtual frame before allocation and the
	// physical frame after; either way every operand must fit.
	bound := f.NumVRegs
	if f.Allocated {
		bound = f.FrameSlots
	}
	if bound < 0 {
		return fmt.Errorf("isa: %s: negative frame size", f.Name)
	}
	if f.NumArgs < 0 {
		return fmt.Errorf("isa: %s: negative arg count", f.Name)
	}
	if f.NumArgs > 3 {
		return fmt.Errorf("isa: %s: %d args exceeds the 3-register call ABI", f.Name, f.NumArgs)
	}
	if f.NumArgs > bound {
		return fmt.Errorf("isa: %s: %d args exceed frame size %d", f.Name, f.NumArgs, bound)
	}
	if f.SpillShared < 0 || f.SpillLocal < 0 {
		return fmt.Errorf("isa: %s: negative spill slot count", f.Name)
	}
	checkReg := func(i int, r Reg, w int, what string) error {
		if r == RegNone {
			return fmt.Errorf("isa: %s[%d]: missing %s operand", f.Name, i, what)
		}
		if int(r)+w > bound {
			return fmt.Errorf("isa: %s[%d]: %s v%d width %d exceeds frame size %d",
				f.Name, i, what, r, w, bound)
		}
		return nil
	}
	calls := 0
	// Spill keys for checkSpillRanges; Validate runs on every launch, and
	// the stack buffer holds most functions' spills without allocating.
	var buf [64]uint64
	spills := buf[:0]
	for i := range f.Instrs {
		in := &f.Instrs[i]
		if in.Op == OpInvalid || in.Op >= opMax {
			return fmt.Errorf("isa: %s[%d]: invalid opcode", f.Name, i)
		}
		if in.Width > 4 {
			return fmt.Errorf("isa: %s[%d]: bad width %d", f.Name, i, in.Width)
		}
		if in.Cmp > CmpGT {
			return fmt.Errorf("isa: %s[%d]: invalid comparison %d", f.Name, i, in.Cmp)
		}
		if in.Sp > SpLaneID {
			return fmt.Errorf("isa: %s[%d]: invalid special register %d", f.Name, i, in.Sp)
		}
		if in.HasDst() {
			if err := checkReg(i, in.Dst, in.W(), "destination"); err != nil {
				return err
			}
		}
		for s := 0; s < in.NumSrcs(); s++ {
			if err := checkReg(i, in.Src[s], in.SrcWidth(s), "source"); err != nil {
				return err
			}
		}
		if in.IsSpill() {
			space, slots := "local", f.SpillLocal
			if in.Op.Space() == spaceShared {
				space, slots = "shared", f.SpillShared
			}
			if in.Imm < 0 || int(in.Imm)+in.W() > slots {
				return fmt.Errorf("isa: %s[%d]: %s spill slot %d width %d exceeds %d slots",
					f.Name, i, space, in.Imm, in.W(), slots)
			}
			spills = append(spills, spillKey(in))
		}
		switch in.Op {
		case OpBra, OpCbr:
			if in.Tgt < 0 || int(in.Tgt) >= len(f.Instrs) {
				return fmt.Errorf("isa: %s[%d]: branch target %d out of range", f.Name, i, in.Tgt)
			}
		case OpCall:
			calls++
			if in.Tgt < 0 || int(in.Tgt) >= len(p.Funcs) {
				return fmt.Errorf("isa: %s[%d]: call target %d out of range", f.Name, i, in.Tgt)
			}
			callee := p.Funcs[in.Tgt]
			if in.NumSrcs() != callee.NumArgs {
				return fmt.Errorf("isa: %s[%d]: call to %q passes %d args, wants %d",
					f.Name, i, callee.Name, in.NumSrcs(), callee.NumArgs)
			}
			if (in.Dst != RegNone) && !callee.HasRet {
				return fmt.Errorf("isa: %s[%d]: call captures result of void %q", f.Name, i, callee.Name)
			}
		case OpRet:
			if fi == 0 {
				return fmt.Errorf("isa: %s[%d]: RET in entry function (use EXIT)", f.Name, i)
			}
			if f.HasRet && in.Src[0] == RegNone {
				return fmt.Errorf("isa: %s[%d]: RET without value in value-returning function", f.Name, i)
			}
		case OpExit:
			if fi != 0 {
				return fmt.Errorf("isa: %s[%d]: EXIT outside entry function", f.Name, i)
			}
		case OpISet, OpFSet:
			if in.Cmp == CmpNone {
				return fmt.Errorf("isa: %s[%d]: set without comparison", f.Name, i)
			}
		case OpRdSp:
			if in.Sp == SpNone {
				return fmt.Errorf("isa: %s[%d]: RDSP without special register", f.Name, i)
			}
		}
	}
	last := &f.Instrs[len(f.Instrs)-1]
	if !last.Terminates() {
		return fmt.Errorf("isa: %s: control falls off the end", f.Name)
	}
	if f.CallBounds != nil {
		if len(f.CallBounds) != calls {
			return fmt.Errorf("isa: %s: %d call bounds for %d call sites",
				f.Name, len(f.CallBounds), calls)
		}
		for k, bk := range f.CallBounds {
			if bk < 0 || bk > bound {
				return fmt.Errorf("isa: %s: call bound %d at site %d outside frame size %d",
					f.Name, bk, k, bound)
			}
		}
	}
	return checkSpillRanges(f, spills)
}

// spillKey packs a spill access's range as space<<40 | start<<3 | width,
// so sorted keys order ranges by space, then start, then width. The slot
// must be validated (below 2^31); width is 1-4. Other ops give 0.
func spillKey(in *Instr) uint64 {
	if !in.IsSpill() {
		return 0
	}
	k := uint64(in.Imm)<<3 | uint64(in.W())
	if in.Op.Space() == spaceShared {
		k |= 1 << 40
	}
	return k
}

// checkSpillRanges returns ErrSpillOverlap when two of f's spill ranges
// (spillKey of every spill access) in one space are neither identical nor
// disjoint, naming the later of their first accesses and the earlier.
func checkSpillRanges(f *Function, spills []uint64) error {
	start := func(k uint64) uint64 { return k >> 3 & (1<<37 - 1) }
	end := func(k uint64) uint64 { return start(k) + k&7 }
	slices.Sort(spills)
	// Sorted, the distinct ranges of a space are pairwise identical or
	// disjoint exactly when each ends before the next begins.
	for i := 1; i < len(spills); i++ {
		x, y := spills[i-1], spills[i]
		if x == y || x>>40 != y>>40 || start(y) >= end(x) {
			continue
		}
		first := func(k uint64) int {
			for pc := range f.Instrs {
				if spillKey(&f.Instrs[pc]) == k {
					return pc
				}
			}
			return -1
		}
		px, py := first(x), first(y)
		if px > py {
			x, y, px, py = y, x, py, px
		}
		space := "local"
		if x>>40 == 1 {
			space = "shared"
		}
		return fmt.Errorf("%w: %s[%d]: %s [%d,%d) against [%d,%d) at %s[%d]", ErrSpillOverlap,
			f.Name, py, space, start(y), end(y), start(x), end(x), f.Name, px)
	}
	return nil
}

func checkAcyclic(p *Program) error {
	const (
		unvisited = 0
		inStack   = 1
		done      = 2
	)
	state := make([]int, len(p.Funcs))
	var visit func(fi int) error
	visit = func(fi int) error {
		switch state[fi] {
		case inStack:
			return ErrRecursion
		case done:
			return nil
		}
		state[fi] = inStack
		f := p.Funcs[fi]
		for i := range f.Instrs {
			if f.Instrs[i].Op == OpCall {
				if err := visit(int(f.Instrs[i].Tgt)); err != nil {
					return err
				}
			}
		}
		state[fi] = done
		return nil
	}
	for fi := range p.Funcs {
		if err := visit(fi); err != nil {
			return err
		}
	}
	return nil
}
