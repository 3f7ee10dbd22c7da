package interp

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/isa"
)

// SIMT mode: lane-accurate warp execution for kernels that read LANEID.
// The paper lists control divergence and irregular (uncoalesced) memory
// access among the dynamic factors that make static occupancy choice
// unreliable; this executor models both. Divergence uses MinPC fragment
// scheduling: the warp is a set of (pc, mask) fragments, the fragment with
// the smallest pc executes next, and fragments that meet at the same pc
// merge — guaranteeing reconvergence for reducible control flow without
// explicit post-dominator analysis. Memory instructions report the set of
// distinct cache lines their active lanes touch, so the timing simulator
// charges uncoalesced accesses their real cost.
//
// SIMT-mode programs are restricted to a single function (no CALL/RET):
// divergent call stacks are out of scope, as on early hardware.

// ErrSIMTUnsupported is returned for programs SIMT mode cannot execute.
var ErrSIMTUnsupported = errors.New("interp: SIMT mode requires a single function without calls")

// WarpWidth is the number of lanes per warp.
const WarpWidth = 32

const fullMask = uint32(0xFFFFFFFF)

type fragment struct {
	pc   int
	mask uint32
}

// SIMTWarp executes one warp lane-accurately.
type SIMTWarp struct {
	prog   *isa.Program
	f      *isa.Function
	layout *Layout
	launch *Launch

	WarpID    int
	BlockID   int
	WarpInBlk int
	SMID      int

	regs     [][WarpWidth]uint32 // [register][lane]
	shSpill  [][WarpWidth]uint32
	locSpill [][WarpWidth]uint32
	shared   []uint32

	frags []fragment

	StepCount int
	Cks       uint64
	StoreCnt  int

	lineBuf []uint64
}

// NewSIMTWarp creates a lane-accurate warp executor. The program must
// have exactly one function and no calls.
func NewSIMTWarp(lc *Launch, layout *Layout, warpID int, shared []uint32) (*SIMTWarp, error) {
	if len(lc.Prog.Funcs) != 1 {
		return nil, ErrSIMTUnsupported
	}
	f := lc.Prog.Entry()
	for i := range f.Instrs {
		if f.Instrs[i].Op == isa.OpCall || f.Instrs[i].Op == isa.OpRet {
			return nil, ErrSIMTUnsupported
		}
	}
	wpb := lc.WarpsPerBlock()
	nregs := f.NumVRegs
	if f.Allocated {
		nregs = f.FrameSlots
	}
	if nregs == 0 {
		nregs = 1
	}
	w := &SIMTWarp{
		prog:      lc.Prog,
		f:         f,
		layout:    layout,
		launch:    lc,
		WarpID:    lc.FirstWarp + warpID,
		BlockID:   (lc.FirstWarp + warpID) / wpb,
		WarpInBlk: (lc.FirstWarp + warpID) % wpb,
		regs:      make([][WarpWidth]uint32, nregs),
		shared:    shared,
		Cks:       fnvOffset,
		frags:     []fragment{{pc: 0, mask: fullMask}},
	}
	if n := layout.SharedSpillSlots; n > 0 {
		w.shSpill = make([][WarpWidth]uint32, n)
	}
	if n := layout.LocalSpillSlots; n > 0 {
		w.locSpill = make([][WarpWidth]uint32, n)
	}
	return w, nil
}

// Done reports whether every lane has exited.
func (w *SIMTWarp) Done() bool { return len(w.frags) == 0 }

// Result reports executed instruction count, store checksum, and stores.
func (w *SIMTWarp) Result() (steps int, checksum uint64, stores int) {
	return w.StepCount, w.Cks, w.StoreCnt
}

// current returns the index of the fragment with the smallest pc.
func (w *SIMTWarp) current() int {
	best := 0
	for i := 1; i < len(w.frags); i++ {
		if w.frags[i].pc < w.frags[best].pc {
			best = i
		}
	}
	return best
}

// Peek resolves the next instruction (of the min-pc fragment) into an
// Event. For memory operations, Lines holds the distinct cache lines the
// active lanes touch.
func (w *SIMTWarp) Peek() Event {
	var ev Event
	w.Fill(&ev)
	return ev
}

// Fill is Peek into caller-owned storage (StepExecutor). ev.Lines aliases
// the warp's line buffer: it stays valid until this warp's next Fill.
func (w *SIMTWarp) Fill(ev *Event) {
	if w.Done() {
		*ev = Event{Kind: KindExit, AbsDst: -1}
		return
	}
	fr := &w.frags[w.current()]
	in := &w.f.Instrs[fr.pc]
	*ev = Event{Instr: in}
	ev.setOperands(in, 0)
	ev.ActiveLanes = bits.OnesCount32(fr.mask)

	switch in.Op {
	case isa.OpLdG, isa.OpStG, isa.OpLdS, isa.OpStS:
		if in.Op == isa.OpLdG || in.Op == isa.OpLdS {
			ev.Kind = KindLoad
		} else {
			ev.Kind = KindStore
		}
		if in.Op == isa.OpLdG || in.Op == isa.OpStG {
			ev.Space = SpaceGlobal
		} else {
			ev.Space = SpaceShared
		}
		ev.Bytes = 4 * in.W()
		// Gather per-lane addresses; coalesce global accesses into distinct
		// lines, and count shared-memory bank conflicts (32 banks, 4-byte
		// interleave: lanes hitting the same bank at different words
		// serialize).
		w.lineBuf = w.lineBuf[:0]
		var banks [WarpWidth]uint32
		var bankCnt [WarpWidth]uint8
		first := true
		for lane := 0; lane < WarpWidth; lane++ {
			if fr.mask&(1<<lane) == 0 {
				continue
			}
			addr := w.regs[in.Src[0]][lane] + uint32(in.Imm)
			if first {
				ev.Addr = addr
				first = false
			}
			switch ev.Space {
			case SpaceGlobal:
				line := uint64(addr) / lineBytes
				dup := false
				for _, l := range w.lineBuf {
					if l == line {
						dup = true
						break
					}
				}
				if !dup {
					w.lineBuf = append(w.lineBuf, line)
				}
			case SpaceShared:
				bank := (addr >> 2) % WarpWidth
				word := addr >> 2
				// Distinct words on the same bank conflict; the same word
				// broadcasts for free.
				if bankCnt[bank] == 0 || banks[bank] != word {
					bankCnt[bank]++
					banks[bank] = word
				}
			}
		}
		switch ev.Space {
		case SpaceGlobal:
			ev.Lines = w.lineBuf
		case SpaceShared:
			worst := 1
			for _, c := range bankCnt {
				if int(c) > worst {
					worst = int(c)
				}
			}
			ev.BankConflicts = worst
		}
	case isa.OpSpillSL, isa.OpSpillSS:
		ev.Kind, ev.Space = KindLoad, SpaceShared
		if in.Op == isa.OpSpillSS {
			ev.Kind = KindStore
		}
		ev.Addr = uint32(4 * int(in.Imm))
		ev.Bytes = 4 * in.W()
	case isa.OpSpillLL, isa.OpSpillLS:
		ev.Kind, ev.Space = KindLoad, SpaceLocal
		if in.Op == isa.OpSpillLS {
			ev.Kind = KindStore
		}
		stride := w.layout.LocalSpillSlots
		if stride == 0 {
			stride = 1
		}
		ev.Addr = uint32(LocalSlotBytes * (w.WarpID*stride + int(in.Imm)))
		ev.Bytes = 4 * in.W()
	case isa.OpBra, isa.OpCbr:
		ev.Kind = KindBranch
	case isa.OpBar:
		ev.Kind = KindBarrier
	case isa.OpExit:
		ev.Kind = KindExit
	case isa.OpFAdd, isa.OpFSub, isa.OpFMul, isa.OpFFma, isa.OpFMin,
		isa.OpFMax, isa.OpFSet, isa.OpF2I, isa.OpI2F:
		ev.Kind = KindFPU
	default:
		ev.Kind = KindALU
	}
}

// Commit executes the instruction Fill resolved (StepExecutor).
func (w *SIMTWarp) Commit() error { return w.Advance() }

// Release is a no-op: reference warps are not pooled (StepExecutor).
func (w *SIMTWarp) Release() {}

// Step executes the min-pc fragment's next instruction across its active
// lanes and returns the event executed.
func (w *SIMTWarp) Step() (Event, error) {
	ev := w.Peek()
	return ev, w.Advance()
}

// Advance is the functional half of Step: it commits the min-pc
// fragment's next instruction without resolving it into an Event (no line
// coalescing, no bank-conflict count). On a finished warp it is a no-op.
func (w *SIMTWarp) Advance() error {
	if w.Done() {
		return nil
	}
	fi := w.current()
	fr := &w.frags[fi]
	in := &w.f.Instrs[fr.pc]
	w.StepCount++
	mask := fr.mask

	lanes := func(fn func(lane int)) {
		for lane := 0; lane < WarpWidth; lane++ {
			if mask&(1<<lane) != 0 {
				fn(lane)
			}
		}
	}
	get := func(r isa.Reg, lane int) uint32 { return w.regs[r][lane] }
	set := func(r isa.Reg, lane int, v uint32) { w.regs[r][lane] = v }

	adv := true
	switch in.Op {
	case isa.OpIAdd:
		lanes(func(l int) { set(in.Dst, l, get(in.Src[0], l)+get(in.Src[1], l)) })
	case isa.OpISub:
		lanes(func(l int) { set(in.Dst, l, get(in.Src[0], l)-get(in.Src[1], l)) })
	case isa.OpIMul:
		lanes(func(l int) { set(in.Dst, l, get(in.Src[0], l)*get(in.Src[1], l)) })
	case isa.OpIMad:
		lanes(func(l int) { set(in.Dst, l, get(in.Src[0], l)*get(in.Src[1], l)+get(in.Src[2], l)) })
	case isa.OpIMin:
		lanes(func(l int) {
			a, b := int32(get(in.Src[0], l)), int32(get(in.Src[1], l))
			if b < a {
				a = b
			}
			set(in.Dst, l, uint32(a))
		})
	case isa.OpIMax:
		lanes(func(l int) {
			a, b := int32(get(in.Src[0], l)), int32(get(in.Src[1], l))
			if b > a {
				a = b
			}
			set(in.Dst, l, uint32(a))
		})
	case isa.OpAnd:
		lanes(func(l int) { set(in.Dst, l, get(in.Src[0], l)&get(in.Src[1], l)) })
	case isa.OpOr:
		lanes(func(l int) { set(in.Dst, l, get(in.Src[0], l)|get(in.Src[1], l)) })
	case isa.OpXor:
		lanes(func(l int) { set(in.Dst, l, get(in.Src[0], l)^get(in.Src[1], l)) })
	case isa.OpShl:
		lanes(func(l int) { set(in.Dst, l, get(in.Src[0], l)<<(get(in.Src[1], l)&31)) })
	case isa.OpShr:
		lanes(func(l int) { set(in.Dst, l, get(in.Src[0], l)>>(get(in.Src[1], l)&31)) })
	case isa.OpISet:
		lanes(func(l int) {
			set(in.Dst, l, boolWord(cmpInt(in.Cmp, int32(get(in.Src[0], l)), int32(get(in.Src[1], l)))))
		})
	case isa.OpFAdd:
		lanes(func(l int) { set(in.Dst, l, fop(get(in.Src[0], l), get(in.Src[1], l), fadd)) })
	case isa.OpFSub:
		lanes(func(l int) { set(in.Dst, l, fop(get(in.Src[0], l), get(in.Src[1], l), fsub)) })
	case isa.OpFMul:
		lanes(func(l int) { set(in.Dst, l, fop(get(in.Src[0], l), get(in.Src[1], l), fmul)) })
	case isa.OpFFma:
		lanes(func(l int) {
			a := math.Float32frombits(get(in.Src[0], l))
			b := math.Float32frombits(get(in.Src[1], l))
			cc := math.Float32frombits(get(in.Src[2], l))
			set(in.Dst, l, math.Float32bits(a*b+cc))
		})
	case isa.OpFMin:
		lanes(func(l int) { set(in.Dst, l, fop(get(in.Src[0], l), get(in.Src[1], l), fmin)) })
	case isa.OpFMax:
		lanes(func(l int) { set(in.Dst, l, fop(get(in.Src[0], l), get(in.Src[1], l), fmax)) })
	case isa.OpFSet:
		lanes(func(l int) {
			a := math.Float32frombits(get(in.Src[0], l))
			b := math.Float32frombits(get(in.Src[1], l))
			set(in.Dst, l, boolWord(cmpFloat(in.Cmp, a, b)))
		})
	case isa.OpF2I:
		lanes(func(l int) {
			fv := float64(math.Float32frombits(get(in.Src[0], l)))
			var iv int32
			switch {
			case fv != fv:
				iv = 0
			case fv >= math.MaxInt32:
				iv = math.MaxInt32
			case fv <= math.MinInt32:
				iv = math.MinInt32
			default:
				iv = int32(fv)
			}
			set(in.Dst, l, uint32(iv))
		})
	case isa.OpI2F:
		lanes(func(l int) { set(in.Dst, l, math.Float32bits(float32(int32(get(in.Src[0], l))))) })
	case isa.OpMov:
		lanes(func(l int) {
			for k := 0; k < in.W(); k++ {
				w.regs[int(in.Dst)+k][l] = w.regs[int(in.Src[0])+k][l]
			}
		})
	case isa.OpMovI:
		lanes(func(l int) { set(in.Dst, l, uint32(in.Imm)) })
	case isa.OpRdSp:
		lanes(func(l int) { set(in.Dst, l, w.special(in.Sp, l)) })
	case isa.OpLdG:
		lanes(func(l int) {
			addr := get(in.Src[0], l) + uint32(in.Imm)
			for k := 0; k < in.W(); k++ {
				w.regs[int(in.Dst)+k][l] = GlobalData(addr + uint32(4*k))
			}
		})
	case isa.OpStG:
		lanes(func(l int) {
			addr := get(in.Src[0], l) + uint32(in.Imm)
			for k := 0; k < in.W(); k++ {
				h := w.Cks
				a := addr + uint32(4*k)
				v := w.regs[int(in.Src[1])+k][l]
				h = (h ^ uint64(a)) * fnvPrime
				h = (h ^ uint64(v)) * fnvPrime
				w.Cks = h
				w.StoreCnt++
			}
		})
	case isa.OpLdS:
		lanes(func(l int) {
			addr := get(in.Src[0], l) + uint32(in.Imm)
			for k := 0; k < in.W(); k++ {
				w.regs[int(in.Dst)+k][l] = w.sharedWord(addr + uint32(4*k))
			}
		})
	case isa.OpStS:
		lanes(func(l int) {
			addr := get(in.Src[0], l) + uint32(in.Imm)
			for k := 0; k < in.W(); k++ {
				w.setSharedWord(addr+uint32(4*k), w.regs[int(in.Src[1])+k][l])
			}
		})
	case isa.OpSpillSS:
		lanes(func(l int) {
			for k := 0; k < in.W(); k++ {
				w.shSpill[int(in.Imm)+k][l] = w.regs[int(in.Src[0])+k][l]
			}
		})
	case isa.OpSpillSL:
		lanes(func(l int) {
			for k := 0; k < in.W(); k++ {
				w.regs[int(in.Dst)+k][l] = w.shSpill[int(in.Imm)+k][l]
			}
		})
	case isa.OpSpillLS:
		lanes(func(l int) {
			for k := 0; k < in.W(); k++ {
				w.locSpill[int(in.Imm)+k][l] = w.regs[int(in.Src[0])+k][l]
			}
		})
	case isa.OpSpillLL:
		lanes(func(l int) {
			for k := 0; k < in.W(); k++ {
				w.regs[int(in.Dst)+k][l] = w.locSpill[int(in.Imm)+k][l]
			}
		})
	case isa.OpBra:
		fr.pc = int(in.Tgt)
		w.mergeFragments()
		return nil
	case isa.OpCbr:
		var taken uint32
		lanes(func(l int) {
			if get(in.Src[0], l) != 0 {
				taken |= 1 << l
			}
		})
		notTaken := mask &^ taken
		switch {
		case notTaken == 0:
			fr.pc = int(in.Tgt)
		case taken == 0:
			fr.pc++
		default:
			// Divergence: split into two fragments.
			fr.mask = notTaken
			fr.pc++
			w.frags = append(w.frags, fragment{pc: int(in.Tgt), mask: taken})
		}
		w.mergeFragments()
		return nil
	case isa.OpBar:
		if len(w.frags) != 1 {
			return ErrDivergedBarrier
		}
	case isa.OpExit:
		w.frags = append(w.frags[:fi], w.frags[fi+1:]...)
		return nil
	default:
		return fmt.Errorf("interp: SIMT mode cannot execute %s", in.Op)
	}
	if adv {
		fr.pc++
		w.mergeFragments()
	}
	return nil
}

// mergeFragments coalesces fragments that reached the same pc
// (reconvergence).
func (w *SIMTWarp) mergeFragments() {
	if len(w.frags) < 2 {
		return
	}
	out := w.frags[:0]
	for _, f := range w.frags {
		merged := false
		for i := range out {
			if out[i].pc == f.pc {
				out[i].mask |= f.mask
				merged = true
				break
			}
		}
		if !merged {
			out = append(out, f)
		}
	}
	w.frags = out
}

func (w *SIMTWarp) special(sp isa.Sp, lane int) uint32 {
	switch sp {
	case isa.SpWarpID:
		return uint32(w.WarpID)
	case isa.SpBlockID:
		return uint32(w.BlockID)
	case isa.SpWarpInBlk:
		return uint32(w.WarpInBlk)
	case isa.SpNumWarps:
		return uint32(w.launch.GridWarps + w.launch.FirstWarp)
	case isa.SpWarpsPerBlk:
		return uint32(w.launch.WarpsPerBlock())
	case isa.SpSMID:
		return uint32(w.SMID)
	case isa.SpLaneID:
		return uint32(lane)
	}
	return 0
}

func (w *SIMTWarp) sharedWord(addr uint32) uint32 {
	if len(w.shared) == 0 {
		return 0
	}
	return w.shared[(addr>>2)%uint32(len(w.shared))]
}

func (w *SIMTWarp) setSharedWord(addr, v uint32) {
	if len(w.shared) == 0 {
		return
	}
	w.shared[(addr>>2)%uint32(len(w.shared))] = v
}

const lineBytes = 128

func fadd(a, b float32) float32 { return a + b }
func fsub(a, b float32) float32 { return a - b }
func fmul(a, b float32) float32 { return a * b }
func fmin(a, b float32) float32 {
	if b < a {
		return b
	}
	return a
}
func fmax(a, b float32) float32 {
	if b > a {
		return b
	}
	return a
}
