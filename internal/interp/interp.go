// Package interp executes OASM programs functionally at warp granularity.
//
// It serves two masters: the test suite uses it to check that compiler
// transformations preserve semantics (the store checksum of a kernel must
// not change when it is re-allocated for a different occupancy), and the
// timing simulator (package sim) uses its stepping API as the execution
// core, reading each instruction's resolved physical registers and memory
// address before committing it.
//
// Execution model: one logical lane per warp (the paper's occupancy
// phenomena are warp-granular). Global memory is deterministic pseudo-data:
// loads of address a return hash(a), stores are logged into a per-warp
// checksum. This makes results independent of warp scheduling, so the
// functional interpreter and the timing simulator observe identical
// semantics. Local memory and spill slots are private read-write state;
// user shared memory is block-private read-write state (benchmarks use it
// warp-disjointly).
package interp

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/isa"
)

// ErrStepLimit is returned when a warp exceeds its dynamic step budget
// (use it to catch accidental infinite loops in kernels under test).
var ErrStepLimit = errors.New("interp: step limit exceeded")

// ErrDivergedBarrier is the SIMT executor's fault when a warp whose lanes
// have diverged reaches a BAR.
var ErrDivergedBarrier = errors.New("interp: BAR executed by a diverged warp")

// Space identifies the memory space touched by an instruction event.
type Space uint8

// Memory spaces.
const (
	SpaceNone Space = iota
	SpaceGlobal
	SpaceShared // user shared memory and shared-memory spill slots
	SpaceLocal  // per-thread local memory (spills), L1-backed
)

// Kind classifies an instruction event for the timing simulator.
type Kind uint8

// Event kinds.
const (
	KindALU Kind = iota + 1
	KindFPU
	KindLoad
	KindStore
	KindBranch
	KindCall
	KindBarrier
	KindExit
)

// Event describes the instruction a warp is about to execute, with operands
// resolved to absolute physical register indices and memory addresses.
type Event struct {
	Instr  *isa.Instr
	Kind   Kind
	Space  Space
	Addr   uint32 // byte address for memory events
	Bytes  int    // transfer size for memory events
	AbsDst int    // absolute dst register (-1 if none); spans Instr.W() slots
	AbsSrc [3]int // absolute src registers (-1 terminated)
	NSrc   int

	// SIMT-mode extras. Lines is the set of distinct cache lines the
	// active lanes touch on a global access (nil in warp-scalar mode: one
	// implicit line at Addr). ActiveLanes is the active-mask population
	// (0 means warp-scalar execution). BankConflicts is the worst
	// per-bank multiplicity of a shared-memory access (1 = conflict-free;
	// the hardware serializes conflicting lanes).
	Lines         []uint64
	ActiveLanes   int
	BankConflicts int

	// DstW and SrcW cache Instr.W() / Instr.SrcWidth(i) so the simulator's
	// scoreboard does not re-derive operand widths on every issue attempt.
	// Every executor's Fill (and so Peek) populates them; DstW is zero when
	// there is no destination.
	DstW uint8
	SrcW [3]uint8
}

// setOperands resolves in's register operands at frame base into the
// event: absolute indices plus the cached widths.
func (ev *Event) setOperands(in *isa.Instr, base int) {
	ev.AbsDst = -1
	ev.AbsSrc = [3]int{-1, -1, -1}
	if in.HasDst() {
		ev.AbsDst = base + int(in.Dst)
		ev.DstW = uint8(in.W())
	}
	ev.NSrc = in.NumSrcs()
	for i := 0; i < ev.NSrc; i++ {
		ev.AbsSrc[i] = base + int(in.Src[i])
		ev.SrcW[i] = uint8(in.SrcWidth(i))
	}
}

// Layout holds static per-program facts the executor and the occupancy
// machinery both need: worst-case register, shared-spill, and local-spill
// requirements along any call chain, plus per-function spill-slot bases.
type Layout struct {
	// RegHighWater is the per-thread register requirement: the maximum over
	// call chains of accumulated frame bases plus leaf frame size.
	RegHighWater int
	// SharedSpillSlots and LocalSpillSlots are per-thread spill-slot
	// requirements (maximum over call chains).
	SharedSpillSlots int
	LocalSpillSlots  int

	frameSize   []int   // per function: registers its frame occupies
	callBase    [][]int // per function: Bk per static call (instruction order)
	callIndex   []map[int]int
	sharedBase  []int // per function: first shared spill slot
	localBase   []int // per function: first local spill slot
	sharedSlots []int
	localSlots  []int
}

// NewLayout computes the static layout of a validated program.
func NewLayout(p *isa.Program) (*Layout, error) {
	n := len(p.Funcs)
	l := &Layout{
		frameSize:   make([]int, n),
		callBase:    make([][]int, n),
		callIndex:   make([]map[int]int, n),
		sharedBase:  make([]int, n),
		localBase:   make([]int, n),
		sharedSlots: make([]int, n),
		localSlots:  make([]int, n),
	}
	for fi, f := range p.Funcs {
		if f.Allocated {
			l.frameSize[fi] = f.FrameSlots
		} else {
			l.frameSize[fi] = f.NumVRegs
		}
		l.sharedSlots[fi] = f.SpillShared
		l.localSlots[fi] = f.SpillLocal
		idx := map[int]int{}
		var bases []int
		k := 0
		for i := range f.Instrs {
			if f.Instrs[i].Op == isa.OpCall {
				idx[i] = k
				b := l.frameSize[fi]
				if f.CallBounds != nil {
					if k >= len(f.CallBounds) {
						return nil, fmt.Errorf("interp: %s: call bounds shorter than call count", f.Name)
					}
					b = f.CallBounds[k]
				}
				bases = append(bases, b)
				k++
			}
		}
		l.callBase[fi] = bases
		l.callIndex[fi] = idx
	}

	// Propagate worst-case bases through the (acyclic) call graph.
	regBase := make([]int, n)
	shBase := make([]int, n)
	locBase := make([]int, n)
	for fi := range p.Funcs {
		regBase[fi], shBase[fi], locBase[fi] = -1, -1, -1
	}
	regBase[0], shBase[0], locBase[0] = 0, 0, 0
	// Functions appear in call order for our generators, but be safe:
	// iterate to fixpoint (call graph is a DAG, so n passes suffice).
	for pass := 0; pass < n; pass++ {
		for fi, f := range p.Funcs {
			if regBase[fi] < 0 {
				continue
			}
			k := 0
			for i := range f.Instrs {
				if f.Instrs[i].Op != isa.OpCall {
					continue
				}
				callee := int(f.Instrs[i].Tgt)
				rb := regBase[fi] + l.callBase[fi][k]
				sb := shBase[fi] + l.sharedSlots[fi]
				lb := locBase[fi] + l.localSlots[fi]
				if rb > regBase[callee] {
					regBase[callee] = rb
				}
				if sb > shBase[callee] {
					shBase[callee] = sb
				}
				if lb > locBase[callee] {
					locBase[callee] = lb
				}
				k++
			}
		}
	}
	for fi := range p.Funcs {
		if regBase[fi] < 0 {
			// Unreachable function: place at base 0 for completeness.
			regBase[fi], shBase[fi], locBase[fi] = 0, 0, 0
		}
		l.sharedBase[fi] = shBase[fi]
		l.localBase[fi] = locBase[fi]
		if hw := regBase[fi] + l.frameSize[fi]; hw > l.RegHighWater {
			l.RegHighWater = hw
		}
		if hw := shBase[fi] + l.sharedSlots[fi]; hw > l.SharedSpillSlots {
			l.SharedSpillSlots = hw
		}
		if hw := locBase[fi] + l.localSlots[fi]; hw > l.LocalSpillSlots {
			l.LocalSpillSlots = hw
		}
	}
	return l, nil
}

type layoutKey struct{}

// LayoutOf returns the static layout of a finalized program, computed
// once per program (isa.Program.Derived): the timing simulator needs it on
// every launch and tuning runs the same binary dozens of times. Callers
// that still mutate a program must use NewLayout directly.
func LayoutOf(p *isa.Program) (*Layout, error) {
	v, err := p.Derived(layoutKey{}, func() (any, error) { return NewLayout(p) })
	l, _ := v.(*Layout)
	return l, err
}

// Launch describes one kernel launch.
type Launch struct {
	Prog      *isa.Program
	GridWarps int // total warps launched
	// FirstWarp offsets warp IDs (used by kernel splitting, paper §3.4).
	FirstWarp int
}

// WarpsPerBlock returns warps per thread block.
func (lc *Launch) WarpsPerBlock() int { return lc.Prog.BlockDim / 32 }

// RegFileSize is the flat per-thread register file the executor models:
// generous (the real budget is enforced by occupancy realization), but a
// hard ceiling on the deepest call chain's register high-water.
const RegFileSize = 512

const regFileSize = RegFileSize

type frame struct {
	fn      int
	pc      int
	base    int
	shBase  int
	locBase int
	retDst  int // absolute register for return value, -1 if none
}

// Warp is a stepping executor for a single warp.
type Warp struct {
	prog   *isa.Program
	layout *Layout
	launch *Launch

	// Identity.
	WarpID    int // global warp index
	BlockID   int
	WarpInBlk int
	SMID      int

	regs     [regFileSize]uint32
	shSpill  []uint32
	locSpill []uint32
	shared   []uint32 // block shared memory (user); shared across warps of a block

	stack []frame
	done  bool

	// Stats.
	Steps    int
	Checksum uint64
	StoreCnt int

	// StoreSink, when set, receives every global store as it commits: the
	// byte address and the W() words written (a view into the register
	// file, valid only during the call). The differential oracle captures
	// store streams through it instead of Peeking every instruction.
	StoreSink func(addr uint32, words []uint32)
}

// NewWarp creates a warp executor. shared is the block's user shared-memory
// array (length Prog.SharedBytes/4, rounded up); it may be shared between
// the warps of one block, or nil if the program declares none.
func NewWarp(lc *Launch, layout *Layout, warpID int, shared []uint32) *Warp {
	wpb := lc.WarpsPerBlock()
	w := &Warp{
		prog:      lc.Prog,
		layout:    layout,
		launch:    lc,
		WarpID:    lc.FirstWarp + warpID,
		BlockID:   (lc.FirstWarp + warpID) / wpb,
		WarpInBlk: (lc.FirstWarp + warpID) % wpb,
		shared:    shared,
		Checksum:  fnvOffset,
	}
	if n := layout.SharedSpillSlots; n > 0 {
		w.shSpill = make([]uint32, n)
	}
	if n := layout.LocalSpillSlots; n > 0 {
		w.locSpill = make([]uint32, n)
	}
	w.stack = append(w.stack, frame{fn: 0, retDst: -1})
	return w
}

// Done reports whether the warp has exited.
func (w *Warp) Done() bool { return w.done }

// Result reports executed instruction count, store checksum, and stores.
func (w *Warp) Result() (steps int, checksum uint64, stores int) {
	return w.Steps, w.Checksum, w.StoreCnt
}

// Peek resolves the current instruction into an Event without committing
// it. Calling Peek on a finished warp returns a KindExit event.
func (w *Warp) Peek() Event {
	var ev Event
	w.Fill(&ev)
	return ev
}

// Fill is Peek into caller-owned storage (StepExecutor).
func (w *Warp) Fill(ev *Event) {
	if w.done {
		*ev = Event{Kind: KindExit, AbsDst: -1}
		return
	}
	fr := &w.stack[len(w.stack)-1]
	f := w.prog.Funcs[fr.fn]
	in := &f.Instrs[fr.pc]
	*ev = Event{Instr: in}
	ev.setOperands(in, fr.base)
	switch in.Op {
	case isa.OpLdG:
		ev.Kind, ev.Space = KindLoad, SpaceGlobal
		ev.Addr = w.reg(fr, in.Src[0]) + uint32(in.Imm)
		ev.Bytes = 4 * in.W()
	case isa.OpStG:
		ev.Kind, ev.Space = KindStore, SpaceGlobal
		ev.Addr = w.reg(fr, in.Src[0]) + uint32(in.Imm)
		ev.Bytes = 4 * in.W()
	case isa.OpLdS:
		ev.Kind, ev.Space = KindLoad, SpaceShared
		ev.Addr = w.reg(fr, in.Src[0]) + uint32(in.Imm)
		ev.Bytes = 4 * in.W()
	case isa.OpStS:
		ev.Kind, ev.Space = KindStore, SpaceShared
		ev.Addr = w.reg(fr, in.Src[0]) + uint32(in.Imm)
		ev.Bytes = 4 * in.W()
	case isa.OpSpillSL:
		ev.Kind, ev.Space = KindLoad, SpaceShared
		ev.Addr = uint32(4 * (fr.shBase + int(in.Imm)))
		ev.Bytes = 4 * in.W()
	case isa.OpSpillSS:
		ev.Kind, ev.Space = KindStore, SpaceShared
		ev.Addr = uint32(4 * (fr.shBase + int(in.Imm)))
		ev.Bytes = 4 * in.W()
	case isa.OpSpillLL:
		ev.Kind, ev.Space = KindLoad, SpaceLocal
		ev.Addr = w.localAddr(fr, in)
		ev.Bytes = 4 * in.W()
	case isa.OpSpillLS:
		ev.Kind, ev.Space = KindStore, SpaceLocal
		ev.Addr = w.localAddr(fr, in)
		ev.Bytes = 4 * in.W()
	case isa.OpBra, isa.OpCbr:
		ev.Kind = KindBranch
	case isa.OpCall, isa.OpRet:
		ev.Kind = KindCall
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
func (w *Warp) Commit() error { return w.Advance() }

// Release is a no-op: reference warps are not pooled (StepExecutor).
func (w *Warp) Release() {}

// LocalSlotBytes is the local-memory footprint of one spill slot for a
// whole warp: 32 threads × 4 bytes, coalescing into exactly one cache
// line. Spill-heavy high-occupancy configurations therefore pressure the
// L1 exactly as they do on hardware.
const LocalSlotBytes = 128

// localAddr maps a local spill slot to a per-warp-unique byte address in
// the local space (each warp/slot pair occupies its own cache line).
func (w *Warp) localAddr(fr *frame, in *isa.Instr) uint32 {
	slot := fr.locBase + int(in.Imm)
	stride := w.layout.LocalSpillSlots
	if stride == 0 {
		stride = 1
	}
	return uint32(LocalSlotBytes * (w.WarpID*stride + slot))
}

func (w *Warp) reg(fr *frame, r isa.Reg) uint32 {
	return w.regs[fr.base+int(r)]
}

// ReadAbsReg returns the value of an absolute register-file slot (as
// resolved by Peek's AbsDst/AbsSrc fields). Out-of-range slots read as 0.
// An observer uses this to capture a Peeked instruction's operands before
// the step commits.
func (w *Warp) ReadAbsReg(i int) uint32 {
	if i < 0 || i >= regFileSize {
		return 0
	}
	return w.regs[i]
}

func (w *Warp) setReg(fr *frame, r isa.Reg, v uint32) {
	w.regs[fr.base+int(r)] = v
}

// Step commits the current instruction. It returns the event executed.
func (w *Warp) Step() (Event, error) {
	ev := w.Peek()
	return ev, w.Advance()
}

// Advance commits the current instruction without resolving it into an
// Event: the functional half of Step, for callers that only need the
// architectural effects (registers, memory, the store checksum). On a
// finished warp it is a no-op.
func (w *Warp) Advance() error {
	if w.done {
		return nil
	}
	fr := &w.stack[len(w.stack)-1]
	f := w.prog.Funcs[fr.fn]
	in := &f.Instrs[fr.pc]
	w.Steps++

	adv := true
	switch in.Op {
	case isa.OpIAdd:
		w.setReg(fr, in.Dst, w.reg(fr, in.Src[0])+w.reg(fr, in.Src[1]))
	case isa.OpISub:
		w.setReg(fr, in.Dst, w.reg(fr, in.Src[0])-w.reg(fr, in.Src[1]))
	case isa.OpIMul:
		w.setReg(fr, in.Dst, w.reg(fr, in.Src[0])*w.reg(fr, in.Src[1]))
	case isa.OpIMad:
		w.setReg(fr, in.Dst, w.reg(fr, in.Src[0])*w.reg(fr, in.Src[1])+w.reg(fr, in.Src[2]))
	case isa.OpIMin:
		a, b := int32(w.reg(fr, in.Src[0])), int32(w.reg(fr, in.Src[1]))
		if b < a {
			a = b
		}
		w.setReg(fr, in.Dst, uint32(a))
	case isa.OpIMax:
		a, b := int32(w.reg(fr, in.Src[0])), int32(w.reg(fr, in.Src[1]))
		if b > a {
			a = b
		}
		w.setReg(fr, in.Dst, uint32(a))
	case isa.OpAnd:
		w.setReg(fr, in.Dst, w.reg(fr, in.Src[0])&w.reg(fr, in.Src[1]))
	case isa.OpOr:
		w.setReg(fr, in.Dst, w.reg(fr, in.Src[0])|w.reg(fr, in.Src[1]))
	case isa.OpXor:
		w.setReg(fr, in.Dst, w.reg(fr, in.Src[0])^w.reg(fr, in.Src[1]))
	case isa.OpShl:
		w.setReg(fr, in.Dst, w.reg(fr, in.Src[0])<<(w.reg(fr, in.Src[1])&31))
	case isa.OpShr:
		w.setReg(fr, in.Dst, w.reg(fr, in.Src[0])>>(w.reg(fr, in.Src[1])&31))
	case isa.OpISet:
		w.setReg(fr, in.Dst, boolWord(cmpInt(in.Cmp, int32(w.reg(fr, in.Src[0])), int32(w.reg(fr, in.Src[1])))))
	case isa.OpFAdd:
		w.setReg(fr, in.Dst, fop(w.reg(fr, in.Src[0]), w.reg(fr, in.Src[1]), func(a, b float32) float32 { return a + b }))
	case isa.OpFSub:
		w.setReg(fr, in.Dst, fop(w.reg(fr, in.Src[0]), w.reg(fr, in.Src[1]), func(a, b float32) float32 { return a - b }))
	case isa.OpFMul:
		w.setReg(fr, in.Dst, fop(w.reg(fr, in.Src[0]), w.reg(fr, in.Src[1]), func(a, b float32) float32 { return a * b }))
	case isa.OpFFma:
		a := math.Float32frombits(w.reg(fr, in.Src[0]))
		b := math.Float32frombits(w.reg(fr, in.Src[1]))
		c := math.Float32frombits(w.reg(fr, in.Src[2]))
		w.setReg(fr, in.Dst, math.Float32bits(a*b+c))
	case isa.OpFMin:
		w.setReg(fr, in.Dst, fop(w.reg(fr, in.Src[0]), w.reg(fr, in.Src[1]), func(a, b float32) float32 {
			if b < a {
				return b
			}
			return a
		}))
	case isa.OpFMax:
		w.setReg(fr, in.Dst, fop(w.reg(fr, in.Src[0]), w.reg(fr, in.Src[1]), func(a, b float32) float32 {
			if b > a {
				return b
			}
			return a
		}))
	case isa.OpFSet:
		a := math.Float32frombits(w.reg(fr, in.Src[0]))
		b := math.Float32frombits(w.reg(fr, in.Src[1]))
		w.setReg(fr, in.Dst, boolWord(cmpFloat(in.Cmp, a, b)))
	case isa.OpF2I:
		fv := float64(math.Float32frombits(w.reg(fr, in.Src[0])))
		var iv int32
		switch {
		case fv != fv: // NaN
			iv = 0
		case fv >= math.MaxInt32:
			iv = math.MaxInt32
		case fv <= math.MinInt32:
			iv = math.MinInt32
		default:
			iv = int32(fv)
		}
		w.setReg(fr, in.Dst, uint32(iv))
	case isa.OpI2F:
		w.setReg(fr, in.Dst, math.Float32bits(float32(int32(w.reg(fr, in.Src[0])))))
	case isa.OpMov:
		for i := 0; i < in.W(); i++ {
			w.regs[fr.base+int(in.Dst)+i] = w.regs[fr.base+int(in.Src[0])+i]
		}
	case isa.OpMovI:
		w.setReg(fr, in.Dst, uint32(in.Imm))
	case isa.OpRdSp:
		w.setReg(fr, in.Dst, w.readSpecial(in.Sp))
	case isa.OpLdG:
		addr := w.reg(fr, in.Src[0]) + uint32(in.Imm)
		for i := 0; i < in.W(); i++ {
			w.regs[fr.base+int(in.Dst)+i] = GlobalData(addr + uint32(4*i))
		}
	case isa.OpStG:
		addr := w.reg(fr, in.Src[0]) + uint32(in.Imm)
		words := w.regs[fr.base+int(in.Src[1]):][:in.W()]
		for i, v := range words {
			w.logStore(addr+uint32(4*i), v)
		}
		if w.StoreSink != nil {
			w.StoreSink(addr, words)
		}
	case isa.OpLdS:
		addr := w.reg(fr, in.Src[0]) + uint32(in.Imm)
		for i := 0; i < in.W(); i++ {
			w.regs[fr.base+int(in.Dst)+i] = w.sharedWord(addr + uint32(4*i))
		}
	case isa.OpStS:
		addr := w.reg(fr, in.Src[0]) + uint32(in.Imm)
		for i := 0; i < in.W(); i++ {
			w.setSharedWord(addr+uint32(4*i), w.regs[fr.base+int(in.Src[1])+i])
		}
	case isa.OpSpillSS:
		for i := 0; i < in.W(); i++ {
			w.shSpill[fr.shBase+int(in.Imm)+i] = w.regs[fr.base+int(in.Src[0])+i]
		}
	case isa.OpSpillSL:
		for i := 0; i < in.W(); i++ {
			w.regs[fr.base+int(in.Dst)+i] = w.shSpill[fr.shBase+int(in.Imm)+i]
		}
	case isa.OpSpillLS:
		for i := 0; i < in.W(); i++ {
			w.locSpill[fr.locBase+int(in.Imm)+i] = w.regs[fr.base+int(in.Src[0])+i]
		}
	case isa.OpSpillLL:
		for i := 0; i < in.W(); i++ {
			w.regs[fr.base+int(in.Dst)+i] = w.locSpill[fr.locBase+int(in.Imm)+i]
		}
	case isa.OpBra:
		fr.pc = int(in.Tgt)
		adv = false
	case isa.OpCbr:
		if w.reg(fr, in.Src[0]) != 0 {
			fr.pc = int(in.Tgt)
			adv = false
		}
	case isa.OpBar:
		// Synchronization is a timing concern; functionally a no-op.
	case isa.OpCall:
		callee := int(in.Tgt)
		k := w.layout.callIndex[fr.fn][fr.pc]
		bk := w.layout.callBase[fr.fn][k]
		newBase := fr.base + bk
		cf := w.prog.Funcs[callee]
		if newBase+w.layout.frameSize[callee] > regFileSize {
			return fmt.Errorf("interp: register file overflow calling %s", cf.Name)
		}
		retDst := -1
		if in.Dst != isa.RegNone {
			retDst = fr.base + int(in.Dst)
		}
		// ABI: arguments are copied into the callee frame's first registers.
		// Read every source before writing any: the callee frame starts at
		// the caller's compressed stack height, so with lazy compression a
		// source register can itself sit inside the argument window, and a
		// sequential copy would read an already-overwritten value.
		var argv [3]uint32
		for a := 0; a < cf.NumArgs; a++ {
			argv[a] = w.reg(fr, in.Src[a])
		}
		for a := 0; a < cf.NumArgs; a++ {
			w.regs[newBase+a] = argv[a]
		}
		fr.pc++ // return address
		w.stack = append(w.stack, frame{
			fn:      callee,
			base:    newBase,
			shBase:  fr.shBase + w.layout.sharedSlots[fr.fn],
			locBase: fr.locBase + w.layout.localSlots[fr.fn],
			retDst:  retDst,
		})
		adv = false
	case isa.OpRet:
		var rv uint32
		hasRV := in.Src[0] != isa.RegNone
		if hasRV {
			rv = w.reg(fr, in.Src[0])
		}
		retDst := fr.retDst
		w.stack = w.stack[:len(w.stack)-1]
		if retDst >= 0 && hasRV {
			w.regs[retDst] = rv
		}
		adv = false
	case isa.OpExit:
		w.done = true
		adv = false
	default:
		return fmt.Errorf("interp: cannot execute %s", in.Op)
	}
	if adv {
		fr.pc++
	}
	return nil
}

func (w *Warp) readSpecial(sp isa.Sp) uint32 {
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
	}
	return 0
}

func (w *Warp) sharedWord(addr uint32) uint32 {
	if len(w.shared) == 0 {
		return 0
	}
	return w.shared[(addr>>2)%uint32(len(w.shared))]
}

func (w *Warp) setSharedWord(addr, v uint32) {
	if len(w.shared) == 0 {
		return
	}
	w.shared[(addr>>2)%uint32(len(w.shared))] = v
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func (w *Warp) logStore(addr, v uint32) {
	h := w.Checksum
	h = (h ^ uint64(addr)) * fnvPrime
	h = (h ^ uint64(v)) * fnvPrime
	w.Checksum = h
	w.StoreCnt++
}

// MixWarpChecksum binds a warp's store checksum to its global warp ID
// before the order-independent XOR fold. Without the mix, warps with
// identical (warp-relative) store streams cancel pairwise under XOR and a
// whole launch can fold to zero — hiding real differences from any
// checksum-based comparison.
func MixWarpChecksum(globalWarpID int, cks uint64) uint64 {
	h := uint64(fnvOffset)
	h = (h ^ uint64(globalWarpID)) * fnvPrime
	h = (h ^ cks) * fnvPrime
	return h
}

// GlobalData is the deterministic pseudo-content of global memory at a
// byte address (word-granular).
func GlobalData(addr uint32) uint32 {
	x := uint64(addr >> 2)
	x = (x ^ (x >> 17)) * 0xed5ad4bb
	x = (x ^ (x >> 11)) * 0xac4c1b51
	x = (x ^ (x >> 15)) * 0x31848bab
	return uint32(x ^ (x >> 14))
}

func boolWord(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func cmpInt(c isa.Cmp, a, b int32) bool {
	switch c {
	case isa.CmpLT:
		return a < b
	case isa.CmpLE:
		return a <= b
	case isa.CmpEQ:
		return a == b
	case isa.CmpNE:
		return a != b
	case isa.CmpGE:
		return a >= b
	case isa.CmpGT:
		return a > b
	}
	return false
}

func cmpFloat(c isa.Cmp, a, b float32) bool {
	switch c {
	case isa.CmpLT:
		return a < b
	case isa.CmpLE:
		return a <= b
	case isa.CmpEQ:
		return a == b
	case isa.CmpNE:
		return a != b
	case isa.CmpGE:
		return a >= b
	case isa.CmpGT:
		return a > b
	}
	return false
}

func fop(a, b uint32, f func(float32, float32) float32) uint32 {
	return math.Float32bits(f(math.Float32frombits(a), math.Float32frombits(b)))
}

// Result summarizes a functional run.
type Result struct {
	Checksum  uint64 // XOR of per-warp store checksums (schedule-independent)
	Steps     int    // total dynamic instructions
	Stores    int
	WarpSteps []int // per-warp dynamic instruction counts
}

// Run executes every warp of the launch functionally. stepLimit bounds the
// dynamic instructions per warp (0 means a generous default).
func Run(lc *Launch, stepLimit int) (*Result, error) {
	if err := isa.Validate(lc.Prog); err != nil {
		return nil, err
	}
	layout, err := NewLayout(lc.Prog)
	if err != nil {
		return nil, err
	}
	// The deepest call chain must fit the flat register file; the per-call
	// overflow guard in Step cannot protect an entry frame that is already
	// too large.
	if layout.RegHighWater > regFileSize {
		return nil, fmt.Errorf("interp: program needs %d registers, file holds %d",
			layout.RegHighWater, regFileSize)
	}
	if stepLimit <= 0 {
		stepLimit = 5_000_000
	}
	res := &Result{WarpSteps: make([]int, lc.GridWarps)}
	wpb := lc.WarpsPerBlock()
	sharedWords := (lc.Prog.SharedBytes + 3) / 4
	simt := lc.Prog.UsesLaneID()
	var shared []uint32
	for wi := 0; wi < lc.GridWarps; wi++ {
		if wi%wpb == 0 {
			if sharedWords > 0 {
				shared = make([]uint32, sharedWords)
			} else {
				shared = nil
			}
		}
		var w interface {
			Advance() error
			Done() bool
			Result() (steps int, checksum uint64, stores int)
		}
		if simt {
			sw, err := NewSIMTWarp(lc, layout, wi, shared)
			if err != nil {
				return nil, err
			}
			w = sw
		} else {
			w = NewWarp(lc, layout, wi, shared)
		}
		for !w.Done() {
			if steps, _, _ := w.Result(); steps >= stepLimit {
				return nil, fmt.Errorf("warp %d: %w", wi, ErrStepLimit)
			}
			if err := w.Advance(); err != nil {
				return nil, fmt.Errorf("warp %d: %w", wi, err)
			}
		}
		steps, cks, stores := w.Result()
		res.Checksum ^= MixWarpChecksum(lc.FirstWarp+wi, cks)
		res.Steps += steps
		res.Stores += stores
		res.WarpSteps[wi] = steps
	}
	return res, nil
}
