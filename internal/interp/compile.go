package interp

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/isa"
)

// Compiled execution backend: each function is translated once into a slice
// of closures ("cops"), one per instruction, with operand registers, spill
// bases, and event metadata resolved at compile time. The timing simulator
// drives compiled warps through Peek, which hands out a precomputed event
// template in place with the frame base and the memory address beside it,
// and Commit, which runs the instruction's closure. The interpreter
// (Warp) remains the semantic source of truth — every closure mirrors the
// corresponding Advance case exactly, including error strings — and the
// differential tests in this package and package sim hold the two backends
// to bit-identical results. Only one-lane execution is compiled:
// lane-variant (LANEID) kernels run the reference Warp at 32 lanes.

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
// register operands plus the closure that commits it.
type cop struct {
	tmpl Event
	exec func(*CWarp)
}

// Compiled is a program translated to closures, shared (immutably) by every
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

// Compile translates a validated program into closures.
func Compile(p *isa.Program) (*Compiled, error) {
	layout, err := NewLayout(p)
	if err != nil {
		return nil, err
	}
	c := &Compiled{funcs: p.Funcs, layout: layout, locStride: layout.LocalSpillSlots}
	if c.locStride == 0 {
		c.locStride = 1
	}
	c.code = make([][]cop, len(p.Funcs))
	for fi := range p.Funcs {
		c.code[fi] = c.compileFunc(fi)
	}
	return c, nil
}

func (c *Compiled) compileFunc(fi int) []cop {
	f := c.funcs[fi]
	code := make([]cop, len(f.Instrs))
	for i := range f.Instrs {
		in := &f.Instrs[i]
		code[i].tmpl = template(in)
		code[i].exec = c.compileOp(fi, i, in)
	}
	return code
}

// template precomputes everything Warp.Peek derives per call, with AbsDst
// and AbsSrc left frame-relative (Fill adds the frame base).
func template(in *isa.Instr) Event {
	var ev Event
	ev.resolve(in, 0)
	return ev
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
		addr = w.regs[fr.base+ev.AbsSrc[0]] + uint32(in.Imm)
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
			ev.AbsDst += base
		}
		for i := 0; i < ev.NSrc; i++ {
			ev.AbsSrc[i] += base
		}
	}
	ev.Addr = addr
}

// Commit executes the current instruction's closure.
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

// compileOp builds the closure for one instruction. Each case mirrors the
// corresponding Warp.Advance case exactly.
func (c *Compiled) compileOp(fi, pc int, in *isa.Instr) func(*CWarp) {
	d, s0, s1, s2 := int(in.Dst), int(in.Src[0]), int(in.Src[1]), int(in.Src[2])
	ui := uint32(in.Imm)
	wn := in.W()
	switch in.Op {
	case isa.OpIAdd:
		return func(w *CWarp) {
			fr := w.fr
			b := fr.base
			w.regs[b+d] = w.regs[b+s0] + w.regs[b+s1]
			fr.pc++
		}
	case isa.OpISub:
		return func(w *CWarp) {
			fr := w.fr
			b := fr.base
			w.regs[b+d] = w.regs[b+s0] - w.regs[b+s1]
			fr.pc++
		}
	case isa.OpIMul:
		return func(w *CWarp) {
			fr := w.fr
			b := fr.base
			w.regs[b+d] = w.regs[b+s0] * w.regs[b+s1]
			fr.pc++
		}
	case isa.OpIMad:
		return func(w *CWarp) {
			fr := w.fr
			b := fr.base
			w.regs[b+d] = w.regs[b+s0]*w.regs[b+s1] + w.regs[b+s2]
			fr.pc++
		}
	case isa.OpIMin:
		return func(w *CWarp) {
			fr := w.fr
			b := fr.base
			x, y := int32(w.regs[b+s0]), int32(w.regs[b+s1])
			if y < x {
				x = y
			}
			w.regs[b+d] = uint32(x)
			fr.pc++
		}
	case isa.OpIMax:
		return func(w *CWarp) {
			fr := w.fr
			b := fr.base
			x, y := int32(w.regs[b+s0]), int32(w.regs[b+s1])
			if y > x {
				x = y
			}
			w.regs[b+d] = uint32(x)
			fr.pc++
		}
	case isa.OpAnd:
		return func(w *CWarp) {
			fr := w.fr
			b := fr.base
			w.regs[b+d] = w.regs[b+s0] & w.regs[b+s1]
			fr.pc++
		}
	case isa.OpOr:
		return func(w *CWarp) {
			fr := w.fr
			b := fr.base
			w.regs[b+d] = w.regs[b+s0] | w.regs[b+s1]
			fr.pc++
		}
	case isa.OpXor:
		return func(w *CWarp) {
			fr := w.fr
			b := fr.base
			w.regs[b+d] = w.regs[b+s0] ^ w.regs[b+s1]
			fr.pc++
		}
	case isa.OpShl:
		return func(w *CWarp) {
			fr := w.fr
			b := fr.base
			w.regs[b+d] = w.regs[b+s0] << (w.regs[b+s1] & 31)
			fr.pc++
		}
	case isa.OpShr:
		return func(w *CWarp) {
			fr := w.fr
			b := fr.base
			w.regs[b+d] = w.regs[b+s0] >> (w.regs[b+s1] & 31)
			fr.pc++
		}
	case isa.OpISet:
		cmp := in.Cmp
		return func(w *CWarp) {
			fr := w.fr
			b := fr.base
			w.regs[b+d] = boolWord(cmpInt(cmp, int32(w.regs[b+s0]), int32(w.regs[b+s1])))
			fr.pc++
		}
	case isa.OpFAdd:
		return func(w *CWarp) {
			fr := w.fr
			b := fr.base
			w.regs[b+d] = math.Float32bits(math.Float32frombits(w.regs[b+s0]) + math.Float32frombits(w.regs[b+s1]))
			fr.pc++
		}
	case isa.OpFSub:
		return func(w *CWarp) {
			fr := w.fr
			b := fr.base
			w.regs[b+d] = math.Float32bits(math.Float32frombits(w.regs[b+s0]) - math.Float32frombits(w.regs[b+s1]))
			fr.pc++
		}
	case isa.OpFMul:
		return func(w *CWarp) {
			fr := w.fr
			b := fr.base
			w.regs[b+d] = math.Float32bits(math.Float32frombits(w.regs[b+s0]) * math.Float32frombits(w.regs[b+s1]))
			fr.pc++
		}
	case isa.OpFFma:
		return func(w *CWarp) {
			fr := w.fr
			b := fr.base
			x := math.Float32frombits(w.regs[b+s0])
			y := math.Float32frombits(w.regs[b+s1])
			z := math.Float32frombits(w.regs[b+s2])
			w.regs[b+d] = math.Float32bits(x*y + z)
			fr.pc++
		}
	case isa.OpFMin:
		return func(w *CWarp) {
			fr := w.fr
			b := fr.base
			x := math.Float32frombits(w.regs[b+s0])
			y := math.Float32frombits(w.regs[b+s1])
			if y < x {
				x = y
			}
			w.regs[b+d] = math.Float32bits(x)
			fr.pc++
		}
	case isa.OpFMax:
		return func(w *CWarp) {
			fr := w.fr
			b := fr.base
			x := math.Float32frombits(w.regs[b+s0])
			y := math.Float32frombits(w.regs[b+s1])
			if y > x {
				x = y
			}
			w.regs[b+d] = math.Float32bits(x)
			fr.pc++
		}
	case isa.OpFSet:
		cmp := in.Cmp
		return func(w *CWarp) {
			fr := w.fr
			b := fr.base
			x := math.Float32frombits(w.regs[b+s0])
			y := math.Float32frombits(w.regs[b+s1])
			w.regs[b+d] = boolWord(cmpFloat(cmp, x, y))
			fr.pc++
		}
	case isa.OpF2I:
		return func(w *CWarp) {
			fr := w.fr
			b := fr.base
			fv := float64(math.Float32frombits(w.regs[b+s0]))
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
			w.regs[b+d] = uint32(iv)
			fr.pc++
		}
	case isa.OpI2F:
		return func(w *CWarp) {
			fr := w.fr
			b := fr.base
			w.regs[b+d] = math.Float32bits(float32(int32(w.regs[b+s0])))
			fr.pc++
		}
	case isa.OpMov:
		if wn == 1 {
			return func(w *CWarp) {
				fr := w.fr
				b := fr.base
				w.regs[b+d] = w.regs[b+s0]
				fr.pc++
			}
		}
		return func(w *CWarp) {
			fr := w.fr
			b := fr.base
			for i := 0; i < wn; i++ {
				w.regs[b+d+i] = w.regs[b+s0+i]
			}
			fr.pc++
		}
	case isa.OpMovI:
		return func(w *CWarp) {
			fr := w.fr
			w.regs[fr.base+d] = ui
			fr.pc++
		}
	case isa.OpRdSp:
		sp := in.Sp
		return func(w *CWarp) {
			fr := w.fr
			w.regs[fr.base+d] = w.readSpecial(sp)
			fr.pc++
		}
	case isa.OpLdG:
		if wn == 1 {
			return func(w *CWarp) {
				fr := w.fr
				b := fr.base
				w.regs[b+d] = GlobalData(w.regs[b+s0] + ui)
				fr.pc++
			}
		}
		return func(w *CWarp) {
			fr := w.fr
			b := fr.base
			addr := w.regs[b+s0] + ui
			for i := 0; i < wn; i++ {
				w.regs[b+d+i] = GlobalData(addr + uint32(4*i))
			}
			fr.pc++
		}
	case isa.OpStG:
		return func(w *CWarp) {
			fr := w.fr
			b := fr.base
			addr := w.regs[b+s0] + ui
			h := w.cks
			for i := 0; i < wn; i++ {
				h = (h ^ uint64(addr+uint32(4*i))) * fnvPrime
				h = (h ^ uint64(w.regs[b+s1+i])) * fnvPrime
			}
			w.cks = h
			w.storeCnt += wn
			fr.pc++
		}
	case isa.OpLdS:
		return func(w *CWarp) {
			fr := w.fr
			b := fr.base
			addr := w.regs[b+s0] + ui
			if n := uint32(len(w.shared)); n != 0 {
				for i := 0; i < wn; i++ {
					w.regs[b+d+i] = w.shared[((addr+uint32(4*i))>>2)%n]
				}
			} else {
				for i := 0; i < wn; i++ {
					w.regs[b+d+i] = 0
				}
			}
			fr.pc++
		}
	case isa.OpStS:
		return func(w *CWarp) {
			fr := w.fr
			b := fr.base
			if n := uint32(len(w.shared)); n != 0 {
				addr := w.regs[b+s0] + ui
				for i := 0; i < wn; i++ {
					w.shared[((addr+uint32(4*i))>>2)%n] = w.regs[b+s1+i]
				}
			}
			fr.pc++
		}
	case isa.OpSpillSS:
		ii := int(in.Imm)
		return func(w *CWarp) {
			fr := w.fr
			b := fr.base
			o := fr.shBase + ii
			for i := 0; i < wn; i++ {
				w.shSpill[o+i] = w.regs[b+s0+i]
			}
			fr.pc++
		}
	case isa.OpSpillSL:
		ii := int(in.Imm)
		return func(w *CWarp) {
			fr := w.fr
			b := fr.base
			o := fr.shBase + ii
			for i := 0; i < wn; i++ {
				w.regs[b+d+i] = w.shSpill[o+i]
			}
			fr.pc++
		}
	case isa.OpSpillLS:
		ii := int(in.Imm)
		return func(w *CWarp) {
			fr := w.fr
			b := fr.base
			o := fr.locBase + ii
			for i := 0; i < wn; i++ {
				w.locSpill[o+i] = w.regs[b+s0+i]
			}
			fr.pc++
		}
	case isa.OpSpillLL:
		ii := int(in.Imm)
		return func(w *CWarp) {
			fr := w.fr
			b := fr.base
			o := fr.locBase + ii
			for i := 0; i < wn; i++ {
				w.regs[b+d+i] = w.locSpill[o+i]
			}
			fr.pc++
		}
	case isa.OpBra:
		tgt := int(in.Tgt)
		return func(w *CWarp) { w.fr.pc = tgt }
	case isa.OpCbr:
		tgt := int(in.Tgt)
		return func(w *CWarp) {
			fr := w.fr
			if w.regs[fr.base+s0] != 0 {
				fr.pc = tgt
			} else {
				fr.pc++
			}
		}
	case isa.OpBar:
		// Synchronization is a timing concern; functionally a no-op.
		return func(w *CWarp) { w.fr.pc++ }
	case isa.OpCall:
		callee := int(in.Tgt)
		bk := c.layout.callBase[fi][c.layout.callIndex[fi][pc]]
		cf := c.funcs[callee]
		calleeName := cf.Name
		calleeFrame := c.layout.frameSize[callee]
		numArgs := cf.NumArgs
		retRel := -1
		if in.Dst != isa.RegNone {
			retRel = d
		}
		shInc := c.layout.sharedSlots[fi]
		locInc := c.layout.localSlots[fi]
		srcs := [3]int{s0, s1, s2}
		return func(w *CWarp) {
			fr := w.fr
			newBase := fr.base + bk
			if newBase+calleeFrame > len(w.regs) {
				w.err = fmt.Errorf("interp: register file overflow calling %s", calleeName)
				return
			}
			retDst := -1
			if retRel >= 0 {
				retDst = fr.base + retRel
			}
			// ABI: read every argument before writing any (see Warp.Advance).
			var argv [3]uint32
			for a := 0; a < numArgs; a++ {
				argv[a] = w.regs[fr.base+srcs[a]]
			}
			for a := 0; a < numArgs; a++ {
				w.regs[newBase+a] = argv[a]
			}
			nf := frame{
				fn:      callee,
				base:    newBase,
				shBase:  fr.shBase + shInc,
				locBase: fr.locBase + locInc,
				retDst:  retDst,
			}
			fr.pc++ // return address
			w.stack = append(w.stack, nf)
			w.fr = &w.stack[len(w.stack)-1]
			w.code = w.c.code[callee]
		}
	case isa.OpRet:
		hasRV := in.Src[0] != isa.RegNone
		return func(w *CWarp) {
			fr := w.fr
			var rv uint32
			if hasRV {
				rv = w.regs[fr.base+s0]
			}
			retDst := fr.retDst
			w.stack = w.stack[:len(w.stack)-1]
			if retDst >= 0 && hasRV {
				w.regs[retDst] = rv
			}
			w.fr = &w.stack[len(w.stack)-1]
			w.code = w.c.code[w.fr.fn]
		}
	case isa.OpExit:
		return func(w *CWarp) { w.done = true }
	default:
		op := in.Op
		return func(w *CWarp) { w.err = fmt.Errorf("interp: cannot execute %s", op) }
	}
}
