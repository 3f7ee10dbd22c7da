// Package opt implements Orion's pressure-reducing middle end: a
// budget-gated, pressure-aware instruction scheduler that runs between
// decode and regalloc.Prep and lowers per-function max-live before the
// allocator ever sees it.
//
// The pass operates on the web-split form the allocator itself uses
// (ir.SplitWebs already renames every live range to a unique variable —
// the φ-coalesced webs of the paper's pruned-SSA step), with
// block liveness on top. The driver re-measures the scheduled body,
// keeps it only on a strict max-live decrease, and has internal/tv check
// that what it keeps reverses no dependence, so the pipeline can only
// return a function that is both checked and better than its input.
package opt

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/isa"
)

// form is the scheduler's view of one function: the web-split clone (each
// live range a unique variable), its CFG, block liveness, and max-live.
type form struct {
	f    *isa.Function // the web-split clone (vars.F)
	vars *ir.Vars
	cfg  *ir.CFG
	live *ir.Live

	maxLive int // width-summed, as ir.Live.MaxLive measures it
}

// buildForm splits webs and derives liveness and max-live.
func buildForm(f *isa.Function) (*form, error) {
	vars, err := ir.SplitWebs(f)
	if err != nil {
		return nil, err
	}
	live := ir.ComputeLiveness(vars)
	fm := &form{f: vars.F, vars: vars, cfg: live.CFG, live: live, maxLive: live.MaxLive(vars)}
	if err := fm.check(); err != nil {
		return nil, err
	}
	return fm, nil
}

// width returns the register-slot width of variable v.
func (fm *form) width(v int) int { return fm.vars.Defs[v].Width }

// pureOp reports whether the opcode computes a register value from its
// register/immediate operands alone — no memory access, no control
// transfer, no barrier interaction — so it can be reordered freely within
// a block subject to register dependences: IADD's and FADD's classes.
// OpRdSp qualifies: special registers are launch constants for a warp.
func pureOp(op isa.Op) bool {
	c := op.Class()
	return c == isa.OpIAdd.Class() || c == isa.OpFAdd.Class()
}

// check verifies the structural invariants the scheduler relies on:
// operands within the frame, branch targets on block leaders, and a
// terminating final instruction. It runs on every form build, so a
// malformed body is caught before the allocator ever sees it.
func (fm *form) check() error {
	if err := checkFunc(fm.f); err != nil {
		return err
	}
	for i := range fm.f.Instrs {
		in := &fm.f.Instrs[i]
		if in.IsBranch() {
			t := int(in.Tgt)
			if bi := fm.cfg.BlockOf[t]; bi >= 0 && fm.cfg.Blocks[bi].Start != t {
				return fmt.Errorf("opt: %s[%d]: branch target %d is not a block leader", fm.f.Name, i, t)
			}
		}
	}
	return nil
}

// checkFunc validates function-local structural invariants (the subset of
// isa.Validate that needs no program context).
func checkFunc(f *isa.Function) error {
	if len(f.Instrs) == 0 {
		return fmt.Errorf("opt: %s: empty function", f.Name)
	}
	if !f.Instrs[len(f.Instrs)-1].Terminates() {
		return fmt.Errorf("opt: %s: control falls off the end", f.Name)
	}
	if f.CallBounds != nil {
		// A call then overwrites the caller's registers from its bound up,
		// which no operand field names: not a pre-allocation function.
		return fmt.Errorf("opt: %s: carries call bounds", f.Name)
	}
	for i := range f.Instrs {
		in := &f.Instrs[i]
		if in.IsBranch() && (in.Tgt < 0 || int(in.Tgt) >= len(f.Instrs)) {
			return fmt.Errorf("opt: %s[%d]: branch target %d out of range", f.Name, i, in.Tgt)
		}
		if in.HasDst() {
			if in.Dst == isa.RegNone || int(in.Dst)+in.W() > f.NumVRegs {
				return fmt.Errorf("opt: %s[%d]: destination v%d width %d outside frame %d",
					f.Name, i, in.Dst, in.W(), f.NumVRegs)
			}
		}
		for s := 0; s < in.NumSrcs(); s++ {
			if in.Src[s] == isa.RegNone || int(in.Src[s])+in.SrcWidth(s) > f.NumVRegs {
				return fmt.Errorf("opt: %s[%d]: source v%d width %d outside frame %d",
					f.Name, i, in.Src[s], in.SrcWidth(s), f.NumVRegs)
			}
		}
	}
	return nil
}
