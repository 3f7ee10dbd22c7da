// Package verify is the post-realization allocation verifier: an
// independent checker for the invariants behind the paper's
// semantics-preservation claim (Theorem 1). Given a realized version it
// re-derives the resource layout from the binary alone and checks that
//
//   - every operand stays inside its function frame and wide (64/96/128-bit)
//     variables sit aligned and contiguous (register-budget compliance);
//   - spill-slot ranges are identical-or-disjoint and the shared spill
//     bytes are counted in the occupancy formula input (spill disjointness);
//   - the compressible stack is valid: per-call bounds cover every call
//     site, and no caller register above a call's compressed height Bk is
//     live across that call (caller/callee frame disjointness);
//   - the advertised resources (registers/thread, shared/block, local
//     slots) match the recomputed layout, and the occupancy they admit
//     reaches the version's target level.
//
// The checks are deliberately independent of the allocator's own
// bookkeeping: everything is recomputed from the instruction stream, so a
// silent misallocation cannot vouch for itself. What cannot be decided
// statically (whether a reused spill slot ever serves two live values) is
// covered dynamically by the differential oracle in this package, which
// runs the original and the realized program and diffs their per-warp
// global-store streams.
package verify

import (
	"errors"
	"fmt"

	"repro/internal/device"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/occupancy"
)

// Violation is one broken invariant, structured for obs reporting.
type Violation struct {
	// Invariant names the broken rule: "structure", "allocated",
	// "wide-alignment", "layout", "reg-budget", "occupancy", "spill-slots",
	// "call-bounds", or "differential".
	Invariant string
	// Func is the offending function, when the violation is per-function.
	Func string
	// Detail is a human-readable description of the failure.
	Detail string
}

func (v Violation) String() string {
	if v.Func != "" {
		return fmt.Sprintf("%s: %s: %s", v.Invariant, v.Func, v.Detail)
	}
	return fmt.Sprintf("%s: %s", v.Invariant, v.Detail)
}

// Realized is the candidate under verification: the allocated program plus
// the resource claims the tuner will trust.
type Realized struct {
	Prog           *isa.Program
	TargetWarps    int
	RegsPerThread  int
	SharedPerBlock int
	LocalSlots     int
}

// Check runs every static invariant against a realized version and returns
// the violations found (nil when the version is clean).
func Check(d *device.Device, cc device.CacheConfig, r Realized) []Violation {
	var vs []Violation
	if r.Prog == nil {
		return []Violation{{Invariant: "structure", Detail: "no program"}}
	}
	if err := isa.Validate(r.Prog); err != nil {
		// Structural damage makes the remaining checks unsafe to run.
		inv := "structure"
		if errors.Is(err, isa.ErrSpillOverlap) {
			inv = "spill-slots"
		}
		return []Violation{{Invariant: inv, Detail: err.Error()}}
	}
	for _, f := range r.Prog.Funcs {
		if !f.Allocated {
			vs = append(vs, Violation{"allocated", f.Name, "function not register-allocated"})
		}
	}
	if len(vs) > 0 {
		return vs
	}
	for _, f := range r.Prog.Funcs {
		vs = append(vs, checkWideAlignment(f)...)
		vs = append(vs, checkCallBounds(f)...)
	}
	vs = append(vs, checkLayout(d, cc, r)...)
	return vs
}

// checkWideAlignment enforces the hardware register-pairing rule: a wide
// operand's frame-relative base must be aligned to its bank granularity
// (AlignFor), and Validate has already guaranteed contiguity (base+width
// inside the frame).
func checkWideAlignment(f *isa.Function) []Violation {
	var vs []Violation
	check := func(i int, r isa.Reg, w int, what string) {
		if w < 2 {
			return
		}
		if a := isa.AlignFor(w); int(r)%a != 0 {
			vs = append(vs, Violation{"wide-alignment", f.Name,
				fmt.Sprintf("instr %d: %s v%d width %d not aligned to %d", i, what, r, w, a)})
		}
	}
	for i := range f.Instrs {
		in := &f.Instrs[i]
		if in.HasDst() {
			check(i, in.Dst, in.W(), "destination")
		}
		for s := 0; s < in.NumSrcs(); s++ {
			check(i, in.Src[s], in.SrcWidth(s), "source")
		}
	}
	return vs
}

// checkLayout recomputes the program's resource layout from scratch and
// compares it with the version's advertised numbers, then feeds the
// advertised numbers through the occupancy calculator to confirm the
// target level is actually admitted (register-budget compliance in the
// paper's occupancy-formula sense, with shared spill bytes included).
func checkLayout(d *device.Device, cc device.CacheConfig, r Realized) []Violation {
	var vs []Violation
	layout, err := interp.NewLayout(r.Prog)
	if err != nil {
		return []Violation{{Invariant: "layout", Detail: err.Error()}}
	}
	regs := layout.RegHighWater
	if regs < 1 {
		regs = 1
	}
	if r.RegsPerThread != regs {
		vs = append(vs, Violation{"layout", "",
			fmt.Sprintf("advertised %d regs/thread, layout needs %d", r.RegsPerThread, regs)})
	}
	shared := r.Prog.SharedBytes + layout.SharedSpillSlots*4*r.Prog.BlockDim
	if r.SharedPerBlock != shared {
		vs = append(vs, Violation{"layout", "",
			fmt.Sprintf("advertised %d B shared/block, layout needs %d (user %d + %d spill slots)",
				r.SharedPerBlock, shared, r.Prog.SharedBytes, layout.SharedSpillSlots)})
	}
	if r.LocalSlots != layout.LocalSpillSlots {
		vs = append(vs, Violation{"layout", "",
			fmt.Sprintf("advertised %d local slots, layout needs %d", r.LocalSlots, layout.LocalSpillSlots)})
	}
	if regs > d.MaxRegsPerThread {
		vs = append(vs, Violation{"reg-budget", "",
			fmt.Sprintf("%d regs/thread exceeds hardware max %d", regs, d.MaxRegsPerThread)})
		return vs
	}
	if r.TargetWarps > 0 {
		occ, err := occupancy.Calc(d, cc, occupancy.Config{
			RegsPerThread:  regs,
			SharedPerBlock: shared,
			BlockDim:       r.Prog.BlockDim,
		})
		if err != nil {
			vs = append(vs, Violation{"occupancy", "", err.Error()})
		} else if occ.ActiveWarps < r.TargetWarps {
			vs = append(vs, Violation{"occupancy", "",
				fmt.Sprintf("resources admit %d warps/SM, target is %d (limited by %v)",
					occ.ActiveWarps, r.TargetWarps, occ.Limiter)})
		}
	}
	return vs
}

// checkCallBounds verifies compressible-stack validity: at every call site
// with compressed height Bk, no caller register at or above Bk may be live
// across the call — the callee frame starts at Bk, so a live value there
// would be clobbered. Liveness is recomputed here at physical-register
// granularity, independent of the allocator's variable-level analysis.
func checkCallBounds(f *isa.Function) []Violation {
	if f.CallBounds == nil || f.FrameSlots <= 0 {
		return nil
	}
	calls := 0
	for i := range f.Instrs {
		if f.Instrs[i].Op == isa.OpCall {
			calls++
		}
	}
	if calls == 0 || len(f.CallBounds) != calls {
		return nil // length mismatch already reported by Validate
	}

	n := f.FrameSlots
	cfg := ir.BuildCFG(f)
	nb := len(cfg.Blocks)

	dstUnits := func(in *isa.Instr, fn func(u int)) {
		if !in.HasDst() {
			return
		}
		for k := 0; k < in.W(); k++ {
			fn(int(in.Dst) + k)
		}
	}
	srcUnits := func(in *isa.Instr, fn func(u int)) {
		for s := 0; s < in.NumSrcs(); s++ {
			for k := 0; k < in.SrcWidth(s); k++ {
				fn(int(in.Src[s]) + k)
			}
		}
	}

	// Block-level backward liveness over physical register units.
	use := make([]ir.BitSet, nb)
	def := make([]ir.BitSet, nb)
	liveIn := make([]ir.BitSet, nb)
	liveOut := make([]ir.BitSet, nb)
	for b := 0; b < nb; b++ {
		use[b], def[b] = ir.NewBitSet(n), ir.NewBitSet(n)
		liveIn[b], liveOut[b] = ir.NewBitSet(n), ir.NewBitSet(n)
		for i := cfg.Blocks[b].Start; i < cfg.Blocks[b].End; i++ {
			in := &f.Instrs[i]
			srcUnits(in, func(u int) {
				if !def[b].Has(u) {
					use[b].Set(u)
				}
			})
			dstUnits(in, func(u int) { def[b].Set(u) })
		}
	}
	for changed := true; changed; {
		changed = false
		for b := nb - 1; b >= 0; b-- {
			for _, s := range cfg.Blocks[b].Succs {
				if liveOut[b].OrWith(liveIn[s]) {
					changed = true
				}
			}
			newIn := liveOut[b].Clone()
			newIn.AndNotWith(def[b])
			newIn.OrWith(use[b])
			if liveIn[b].OrWith(newIn) {
				changed = true
			}
		}
	}

	// Static call index per instruction, in instruction order.
	callIdx := make(map[int]int, calls)
	k := 0
	for i := range f.Instrs {
		if f.Instrs[i].Op == isa.OpCall {
			callIdx[i] = k
			k++
		}
	}

	var vs []Violation
	live := ir.NewBitSet(n)
	for b := 0; b < nb; b++ {
		live.CopyFrom(liveOut[b])
		for i := cfg.Blocks[b].End - 1; i >= cfg.Blocks[b].Start; i-- {
			in := &f.Instrs[i]
			if in.Op == isa.OpCall {
				bk := f.CallBounds[callIdx[i]]
				// Units live after the call, excluding the call's own result
				// span (the callee writes it on return), must sit below Bk.
				bad := -1
				live.ForEach(func(u int) {
					if u < bk || bad >= 0 {
						return
					}
					if in.Dst != isa.RegNone && u >= int(in.Dst) && u < int(in.Dst)+in.W() {
						return
					}
					bad = u
				})
				if bad >= 0 {
					vs = append(vs, Violation{"call-bounds", f.Name,
						fmt.Sprintf("instr %d: register v%d live across call with compressed height %d",
							i, bad, bk)})
				}
			}
			dstUnits(in, func(u int) { live.Clear(u) })
			srcUnits(in, func(u int) { live.Set(u) })
		}
	}
	return vs
}
