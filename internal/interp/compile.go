package interp

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/isa"
)

// Compiled execution backend: each function is translated once into a slice
// of cops, one per instruction: an event template with operand registers
// and classification resolved at compile time, and a static per-opcode
// handler that reads its operands from that template. The timing simulator
// drives compiled warps through Peek, which hands out the template in
// place with the frame base and the memory address beside it, and Commit,
// which runs the handler. The interpreter (Warp) remains the semantic
// source of truth — every handler mirrors the corresponding Advance case
// exactly, including error strings — and the differential tests in this
// package and package sim hold the two backends to bit-identical results.
// Only one-lane execution is compiled: lane-variant (LANEID) kernels run
// the reference Warp at 32 lanes.

// StepExecutor is the stepping interface both executors (CWarp, Warp)
// implement. Fill writes the next event into caller-owned storage and the
// event carries the DstW/SrcW operand widths, so the scoreboard never
// re-derives them. The timing simulator drives a reference warp through
// Fill and a compiled one through CWarp.Peek, which reads the template in
// place. Release returns pooled execution state after the warp retires.
type StepExecutor interface {
	// Fill resolves the next instruction into ev. On a finished warp it
	// writes a KindExit event.
	Fill(ev *Event)
	// Commit executes the instruction Fill resolved.
	Commit() error
	Done() bool
	// Result reports dynamic instructions, the store checksum, and the
	// store count.
	Result() (steps int, checksum uint64, stores int)
	// Release recycles pooled state. The executor must not be used after.
	Release()
}

var (
	_ StepExecutor = (*CWarp)(nil)
	_ StepExecutor = (*Warp)(nil)
)

// cop is one compiled instruction: an event template with frame-relative
// register operands, and the static handler that commits it. The handler
// finds its cop at the warp's pc (CWarp.op) and reads everything it needs
// from the template (operands and widths, and through tmpl.Instr the
// immediate, comparison, special register and target), so a cop is 48
// bytes on a 64-bit host and compiling a function allocates its []cop and
// nothing per instruction. The handler takes no cop argument because that
// would push Commit past the compiler's inlining budget, and the
// simulator's issue loop calls Commit once per instruction.
type cop struct {
	tmpl Event
	exec func(*CWarp)
}

// Compiled is a program translated to cops, shared (immutably) by every
// warp executing that program. It holds the functions, not the program
// that owns it (CompiledOf): see isa.Program.Derived on back pointers.
type Compiled struct {
	funcs  []*isa.Function
	layout *Layout

	code      [][]cop // per function, indexed by pc
	locStride int     // max(layout.LocalSpillSlots, 1)
}

// Layout returns the static layout the compilation used.
func (c *Compiled) Layout() *Layout { return c.layout }

type compiledKey struct{}

// CompiledOf returns the translation of a finalized program, compiled
// once per program (isa.Program.Derived).
func CompiledOf(p *isa.Program) (*Compiled, error) {
	v, err := p.Derived(compiledKey{}, func() (any, error) { return Compile(p) })
	c, _ := v.(*Compiled)
	return c, err
}

// Compile translates a validated program into cops. It fails when the
// deepest call chain does not fit RegFileSize, the bound that lets a
// template hold its registers as int16.
func Compile(p *isa.Program) (*Compiled, error) {
	layout, err := NewLayout(p)
	if err != nil {
		return nil, err
	}
	if err := layout.CheckRegFile(); err != nil {
		return nil, err
	}
	c := &Compiled{funcs: p.Funcs, layout: layout, locStride: max(layout.LocalSpillSlots, 1)}
	c.code = make([][]cop, len(p.Funcs))
	for fi, f := range p.Funcs {
		code := make([]cop, len(f.Instrs))
		for i := range f.Instrs {
			in := &f.Instrs[i]
			code[i].tmpl.resolve(in, 0, layout.pcBase[fi]+i) // frame-relative: Peek reports the base
			code[i].exec = handler(in)
		}
		c.code[fi] = code
	}
	return c, nil
}

// CWarp executes one warp (warp-scalar mode) through a compiled program.
// It mirrors Warp state exactly; instances are pooled across launches.
type CWarp struct {
	c      *Compiled
	launch *Launch

	WarpID    int
	BlockID   int
	WarpInBlk int
	SMID      int

	regs     []uint32 // the layout's RegHighWater words
	shSpill  []uint32
	locSpill []uint32
	shared   []uint32

	stack []frame
	fr    *frame // &stack[len(stack)-1]
	code  []cop  // c.code[fr.fn]

	done bool
	err  error

	steps    int
	cks      uint64
	storeCnt int
}

var cwarpPool = sync.Pool{New: func() any { return new(CWarp) }}

// NewCWarp creates (or recycles) a compiled warp executor. Recycled state
// is fully re-zeroed so pooled warps are indistinguishable from fresh ones.
func NewCWarp(c *Compiled, lc *Launch, warpID int, shared []uint32) *CWarp {
	w := cwarpPool.Get().(*CWarp)
	wpb := lc.WarpsPerBlock()
	w.c = c
	w.launch = lc
	w.WarpID = lc.FirstWarp + warpID
	w.BlockID = w.WarpID / wpb
	w.WarpInBlk = w.WarpID % wpb
	w.SMID = 0
	w.regs = reuseZeroed(w.regs, c.layout.RegHighWater)
	w.shSpill = reuseZeroed(w.shSpill, c.layout.SharedSpillSlots)
	w.locSpill = reuseZeroed(w.locSpill, c.layout.LocalSpillSlots)
	w.shared = shared
	w.stack = append(w.stack[:0], frame{fn: 0, retDst: -1})
	w.fr = &w.stack[0]
	w.code = c.code[0]
	w.done = false
	w.err = nil
	w.steps, w.storeCnt = 0, 0
	w.cks = fnvOffset
	return w
}

func reuseZeroed(buf []uint32, n int) []uint32 {
	if n == 0 {
		return buf[:0]
	}
	if cap(buf) < n {
		return make([]uint32, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// Release returns the warp to the pool.
func (w *CWarp) Release() {
	w.c, w.launch, w.shared, w.code = nil, nil, nil, nil
	cwarpPool.Put(w)
}

// Done reports whether the warp has exited.
func (w *CWarp) Done() bool { return w.done }

// Result reports executed instruction count, store checksum, and stores.
func (w *CWarp) Result() (int, uint64, int) { return w.steps, w.cks, w.storeCnt }

// exitEvent is what Peek returns on a finished warp.
var exitEvent = Event{Kind: KindExit, AbsDst: -1}

// Peek resolves the next instruction without copying it. ev is the
// compiled template, shared by every warp of the program and read-only;
// its AbsDst and AbsSrc are relative to base, the current frame's base.
// addr is the memory address (zero for an event with no memory access).
// On a finished warp ev is a KindExit event.
func (w *CWarp) Peek() (ev *Event, base int, addr uint32) {
	if w.done {
		return &exitEvent, 0, 0
	}
	fr := w.fr
	ev = &w.code[fr.pc].tmpl
	switch in := ev.Instr; {
	case ev.Space == SpaceNone:
	case in.IsMem():
		addr = w.regs[fr.base+int(ev.AbsSrc[0])] + uint32(in.Imm)
	case ev.Space == SpaceShared:
		addr = uint32(4 * (fr.shBase + int(in.Imm)))
	default:
		addr = uint32(LocalSlotBytes * (w.WarpID*w.c.locStride + fr.locBase + int(in.Imm)))
	}
	return ev, fr.base, addr
}

// Fill copies Peek's template into ev with the frame base added to its
// register operands and the address set.
func (w *CWarp) Fill(ev *Event) {
	tmpl, base, addr := w.Peek()
	*ev = *tmpl
	if base != 0 {
		if ev.AbsDst >= 0 {
			ev.AbsDst += int16(base)
		}
		for i := 0; i < int(ev.NSrc); i++ {
			ev.AbsSrc[i] += int16(base)
		}
	}
	ev.Addr = addr
}

// Commit executes the current instruction's handler.
func (w *CWarp) Commit() error {
	if w.done {
		return nil
	}
	w.steps++
	w.code[w.fr.pc].exec(w)
	return w.err
}

func (w *CWarp) readSpecial(sp isa.Sp) uint32 {
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

// handlers holds each opcode's handler, written to mirror the
// corresponding Warp.Advance case exactly; handler picks MOV's and LDG's
// one-word variants.
var handlers = [...]func(*CWarp){
	isa.OpIAdd: execIAdd, isa.OpISub: execISub, isa.OpIMul: execIMul, isa.OpIMad: execIMad,
	isa.OpIMin: execIMin, isa.OpIMax: execIMax, isa.OpAnd: execAnd, isa.OpOr: execOr,
	isa.OpXor: execXor, isa.OpShl: execShl, isa.OpShr: execShr, isa.OpISet: execISet,

	isa.OpFAdd: execFAdd, isa.OpFSub: execFSub, isa.OpFMul: execFMul, isa.OpFFma: execFFma,
	isa.OpFMin: execFMin, isa.OpFMax: execFMax, isa.OpFSet: execFSet, isa.OpF2I: execF2I,
	isa.OpI2F: execI2F,

	isa.OpMov: execMovWide, isa.OpMovI: execMovI, isa.OpRdSp: execRdSp,

	isa.OpLdG: execLdGWide, isa.OpStG: execStG, isa.OpLdS: execLdS, isa.OpStS: execStS,
	isa.OpSpillSS: execSpillSS, isa.OpSpillSL: execSpillSL,
	isa.OpSpillLS: execSpillLS, isa.OpSpillLL: execSpillLL,

	isa.OpBra: execBra, isa.OpCbr: execCbr, isa.OpCall: execCall, isa.OpRet: execRet,
	isa.OpBar: execBar, isa.OpExit: execExit,
}

// handler returns the static function that commits in.
func handler(in *isa.Instr) func(*CWarp) {
	switch {
	case in.Op == isa.OpMov && in.W() == 1:
		return execMov
	case in.Op == isa.OpLdG && in.W() == 1:
		return execLdG
	case int(in.Op) < len(handlers) && handlers[in.Op] != nil:
		return handlers[in.Op]
	}
	return execInvalid
}

// op returns the cop at the warp's pc: the instruction a handler commits.
func (w *CWarp) op() *cop { return &w.code[w.fr.pc] }

// operands returns the cop at the warp's pc with its destination and first
// two sources rebased onto the frame. An operand the instruction lacks
// comes out as base-1, which its handler never reads.
func (w *CWarp) operands() (op *cop, d, s0, s1 int) {
	op, b := w.op(), w.fr.base
	return op, b + int(op.tmpl.AbsDst), b + int(op.tmpl.AbsSrc[0]), b + int(op.tmpl.AbsSrc[1])
}

func execIAdd(w *CWarp) {
	_, d, s0, s1 := w.operands()
	w.regs[d] = w.regs[s0] + w.regs[s1]
	w.fr.pc++
}

func execISub(w *CWarp) {
	_, d, s0, s1 := w.operands()
	w.regs[d] = w.regs[s0] - w.regs[s1]
	w.fr.pc++
}

func execIMul(w *CWarp) {
	_, d, s0, s1 := w.operands()
	w.regs[d] = w.regs[s0] * w.regs[s1]
	w.fr.pc++
}

func execIMad(w *CWarp) {
	op, d, s0, s1 := w.operands()
	s2 := w.fr.base + int(op.tmpl.AbsSrc[2])
	w.regs[d] = w.regs[s0]*w.regs[s1] + w.regs[s2]
	w.fr.pc++
}

func execIMin(w *CWarp) {
	_, d, s0, s1 := w.operands()
	w.regs[d] = uint32(min(int32(w.regs[s0]), int32(w.regs[s1])))
	w.fr.pc++
}

func execIMax(w *CWarp) {
	_, d, s0, s1 := w.operands()
	w.regs[d] = uint32(max(int32(w.regs[s0]), int32(w.regs[s1])))
	w.fr.pc++
}

func execAnd(w *CWarp) {
	_, d, s0, s1 := w.operands()
	w.regs[d] = w.regs[s0] & w.regs[s1]
	w.fr.pc++
}

func execOr(w *CWarp) {
	_, d, s0, s1 := w.operands()
	w.regs[d] = w.regs[s0] | w.regs[s1]
	w.fr.pc++
}

func execXor(w *CWarp) {
	_, d, s0, s1 := w.operands()
	w.regs[d] = w.regs[s0] ^ w.regs[s1]
	w.fr.pc++
}

func execShl(w *CWarp) {
	_, d, s0, s1 := w.operands()
	w.regs[d] = w.regs[s0] << (w.regs[s1] & 31)
	w.fr.pc++
}

func execShr(w *CWarp) {
	_, d, s0, s1 := w.operands()
	w.regs[d] = w.regs[s0] >> (w.regs[s1] & 31)
	w.fr.pc++
}

func execISet(w *CWarp) {
	op, d, s0, s1 := w.operands()
	w.regs[d] = boolWord(cmpInt(op.tmpl.Instr.Cmp, int32(w.regs[s0]), int32(w.regs[s1])))
	w.fr.pc++
}

func execFAdd(w *CWarp) {
	_, d, s0, s1 := w.operands()
	w.regs[d] = math.Float32bits(f32(w.regs[s0]) + f32(w.regs[s1]))
	w.fr.pc++
}

func execFSub(w *CWarp) {
	_, d, s0, s1 := w.operands()
	w.regs[d] = math.Float32bits(f32(w.regs[s0]) - f32(w.regs[s1]))
	w.fr.pc++
}

func execFMul(w *CWarp) {
	_, d, s0, s1 := w.operands()
	w.regs[d] = math.Float32bits(f32(w.regs[s0]) * f32(w.regs[s1]))
	w.fr.pc++
}

func execFFma(w *CWarp) {
	op, d, s0, s1 := w.operands()
	s2 := w.fr.base + int(op.tmpl.AbsSrc[2])
	w.regs[d] = math.Float32bits(f32(w.regs[s0])*f32(w.regs[s1]) + f32(w.regs[s2]))
	w.fr.pc++
}

func execFMin(w *CWarp) {
	_, d, s0, s1 := w.operands()
	x, y := f32(w.regs[s0]), f32(w.regs[s1])
	if y < x {
		x = y
	}
	w.regs[d] = math.Float32bits(x)
	w.fr.pc++
}

func execFMax(w *CWarp) {
	_, d, s0, s1 := w.operands()
	x, y := f32(w.regs[s0]), f32(w.regs[s1])
	if y > x {
		x = y
	}
	w.regs[d] = math.Float32bits(x)
	w.fr.pc++
}

func execFSet(w *CWarp) {
	op, d, s0, s1 := w.operands()
	w.regs[d] = boolWord(cmpFloat(op.tmpl.Instr.Cmp, f32(w.regs[s0]), f32(w.regs[s1])))
	w.fr.pc++
}

func execF2I(w *CWarp) {
	_, d, s0, _ := w.operands()
	fv := float64(f32(w.regs[s0]))
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
	w.regs[d] = uint32(iv)
	w.fr.pc++
}

func execI2F(w *CWarp) {
	_, d, s0, _ := w.operands()
	w.regs[d] = math.Float32bits(float32(int32(w.regs[s0])))
	w.fr.pc++
}

func execMov(w *CWarp) {
	_, d, s0, _ := w.operands()
	w.regs[d] = w.regs[s0]
	w.fr.pc++
}

func execMovWide(w *CWarp) {
	op, d, s0, _ := w.operands()
	for i := 0; i < int(op.tmpl.DstW); i++ {
		w.regs[d+i] = w.regs[s0+i]
	}
	w.fr.pc++
}

func execMovI(w *CWarp) {
	op, d, _, _ := w.operands()
	w.regs[d] = uint32(op.tmpl.Instr.Imm)
	w.fr.pc++
}

func execRdSp(w *CWarp) {
	op, d, _, _ := w.operands()
	w.regs[d] = w.readSpecial(op.tmpl.Instr.Sp)
	w.fr.pc++
}

func execLdG(w *CWarp) {
	op, d, s0, _ := w.operands()
	w.regs[d] = GlobalData(w.regs[s0] + uint32(op.tmpl.Instr.Imm))
	w.fr.pc++
}

func execLdGWide(w *CWarp) {
	op, d, s0, _ := w.operands()
	addr := w.regs[s0] + uint32(op.tmpl.Instr.Imm)
	for i := 0; i < int(op.tmpl.DstW); i++ {
		w.regs[d+i] = GlobalData(addr + uint32(4*i))
	}
	w.fr.pc++
}

func execStG(w *CWarp) {
	op, _, s0, s1 := w.operands()
	wn := int(op.tmpl.SrcW[1])
	addr := w.regs[s0] + uint32(op.tmpl.Instr.Imm)
	h := w.cks
	for i := 0; i < wn; i++ {
		h = (h ^ uint64(addr+uint32(4*i))) * fnvPrime
		h = (h ^ uint64(w.regs[s1+i])) * fnvPrime
	}
	w.cks = h
	w.storeCnt += wn
	w.fr.pc++
}

func execLdS(w *CWarp) {
	op, d, s0, _ := w.operands()
	addr := w.regs[s0] + uint32(op.tmpl.Instr.Imm)
	if n := uint32(len(w.shared)); n != 0 {
		for i := 0; i < int(op.tmpl.DstW); i++ {
			w.regs[d+i] = w.shared[((addr+uint32(4*i))>>2)%n]
		}
	} else {
		for i := 0; i < int(op.tmpl.DstW); i++ {
			w.regs[d+i] = 0
		}
	}
	w.fr.pc++
}

func execStS(w *CWarp) {
	op, _, s0, s1 := w.operands()
	if n := uint32(len(w.shared)); n != 0 {
		addr := w.regs[s0] + uint32(op.tmpl.Instr.Imm)
		for i := 0; i < int(op.tmpl.SrcW[1]); i++ {
			w.shared[((addr+uint32(4*i))>>2)%n] = w.regs[s1+i]
		}
	}
	w.fr.pc++
}

func execSpillSS(w *CWarp) {
	fr := w.fr
	op, _, s0, _ := w.operands()
	o := fr.shBase + int(op.tmpl.Instr.Imm)
	for i := 0; i < int(op.tmpl.SrcW[0]); i++ {
		w.shSpill[o+i] = w.regs[s0+i]
	}
	fr.pc++
}

func execSpillSL(w *CWarp) {
	fr := w.fr
	op, d, _, _ := w.operands()
	o := fr.shBase + int(op.tmpl.Instr.Imm)
	for i := 0; i < int(op.tmpl.DstW); i++ {
		w.regs[d+i] = w.shSpill[o+i]
	}
	fr.pc++
}

func execSpillLS(w *CWarp) {
	fr := w.fr
	op, _, s0, _ := w.operands()
	o := fr.locBase + int(op.tmpl.Instr.Imm)
	for i := 0; i < int(op.tmpl.SrcW[0]); i++ {
		w.locSpill[o+i] = w.regs[s0+i]
	}
	fr.pc++
}

func execSpillLL(w *CWarp) {
	fr := w.fr
	op, d, _, _ := w.operands()
	o := fr.locBase + int(op.tmpl.Instr.Imm)
	for i := 0; i < int(op.tmpl.DstW); i++ {
		w.regs[d+i] = w.locSpill[o+i]
	}
	fr.pc++
}

func execBra(w *CWarp) { w.fr.pc = int(w.op().tmpl.Instr.Tgt) }

func execCbr(w *CWarp) {
	if op, _, s0, _ := w.operands(); w.regs[s0] != 0 {
		w.fr.pc = int(op.tmpl.Instr.Tgt)
	} else {
		w.fr.pc++
	}
}

// execBar: synchronization is a timing concern; functionally a no-op.
func execBar(w *CWarp) { w.fr.pc++ }

func execCall(w *CWarp) {
	op, fr, l := w.op(), w.fr, w.c.layout
	callee := int(op.tmpl.Instr.Tgt)
	newBase := fr.base + l.callBase[fr.fn][fr.pc]
	if newBase+l.frameSize[callee] > len(w.regs) {
		w.err = fmt.Errorf("interp: register file overflow calling %s", w.c.funcs[callee].Name)
		return
	}
	retDst := -1
	if op.tmpl.AbsDst >= 0 {
		retDst = fr.base + int(op.tmpl.AbsDst)
	}
	// ABI: read every argument before writing any (see Warp.Advance).
	// isa.Validate holds the argument count to the callee's NumArgs.
	var argv [3]uint32
	nargs := int(op.tmpl.NSrc)
	for a := 0; a < nargs; a++ {
		argv[a] = w.regs[fr.base+int(op.tmpl.AbsSrc[a])]
	}
	for a := 0; a < nargs; a++ {
		w.regs[newBase+a] = argv[a]
	}
	nf := frame{
		fn:      callee,
		base:    newBase,
		shBase:  fr.shBase + l.sharedSlots[fr.fn],
		locBase: fr.locBase + l.localSlots[fr.fn],
		retDst:  retDst,
	}
	fr.pc++ // return address
	w.stack = append(w.stack, nf)
	w.fr = &w.stack[len(w.stack)-1]
	w.code = w.c.code[callee]
}

func execRet(w *CWarp) {
	op, fr := w.op(), w.fr
	hasRV := op.tmpl.NSrc > 0
	var rv uint32
	if hasRV {
		rv = w.regs[fr.base+int(op.tmpl.AbsSrc[0])]
	}
	retDst := fr.retDst
	w.stack = w.stack[:len(w.stack)-1]
	if retDst >= 0 && hasRV {
		w.regs[retDst] = rv
	}
	w.fr = &w.stack[len(w.stack)-1]
	w.code = w.c.code[w.fr.fn]
}

func execExit(w *CWarp) { w.done = true }

func execInvalid(w *CWarp) {
	w.err = fmt.Errorf("interp: cannot execute %s", w.op().tmpl.Instr.Op)
}
