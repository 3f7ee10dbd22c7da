package interp

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/isa"
)

// Compiled SIMT backend: the lane-accurate twin of CWarp. Each instruction
// becomes one closure that batches the whole warp's ALU work in a tight
// loop over pre-resolved *[32]uint32 operand rows — replacing SIMTWarp's
// per-lane function dispatch — with a branch-free fast loop when the full
// mask is active. Control flow (MinPC fragments, divergence, reconvergence)
// and every event field mirror SIMTWarp exactly.

// cgather tells CSIMTWarp.Fill how to derive the event's address footprint.
type cgather uint8

const (
	cgNone   cgather = iota
	cgGlobal         // per-lane addresses coalesced into distinct lines
	cgShared         // per-lane addresses folded into bank conflicts
	cgLocal          // one per-warp spill-line address
)

// csop is one compiled SIMT instruction.
type csop struct {
	tmpl Event
	gath cgather
	aSrc int32
	aImm uint32
	exec func(w *CSIMTWarp, fr *fragment)
}

func (c *Compiled) compileSIMT() {
	if len(c.funcs) != 1 {
		c.simtErr = ErrSIMTUnsupported
		return
	}
	f := c.funcs[0]
	for i := range f.Instrs {
		if f.Instrs[i].Op == isa.OpCall || f.Instrs[i].Op == isa.OpRet {
			c.simtErr = ErrSIMTUnsupported
			return
		}
	}
	nregs := f.NumVRegs
	if f.Allocated {
		nregs = f.FrameSlots
	}
	if nregs == 0 {
		nregs = 1
	}
	c.simtNRegs = nregs
	c.simt = make([]csop, len(f.Instrs))
	for i := range f.Instrs {
		in := &f.Instrs[i]
		c.simt[i].tmpl = simtTemplate(in)
		c.simt[i].gath, c.simt[i].aSrc, c.simt[i].aImm = simtGatherOf(in)
		c.simt[i].exec = compileSIMTOp(in)
	}
}

// simtTemplate precomputes what SIMTWarp.Peek derives per call. Shared
// spill addresses are static in SIMT mode (a single frame at base 0).
func simtTemplate(in *isa.Instr) Event {
	ev := template(in)
	switch in.Op {
	case isa.OpSpillSL, isa.OpSpillSS:
		ev.Addr = uint32(4 * int(in.Imm))
	}
	return ev
}

func simtGatherOf(in *isa.Instr) (cgather, int32, uint32) {
	switch in.Op {
	case isa.OpLdG, isa.OpStG:
		return cgGlobal, int32(in.Src[0]), uint32(in.Imm)
	case isa.OpLdS, isa.OpStS:
		return cgShared, int32(in.Src[0]), uint32(in.Imm)
	case isa.OpSpillLL, isa.OpSpillLS:
		return cgLocal, 0, uint32(in.Imm)
	}
	return cgNone, 0, 0
}

// CSIMTWarp executes one warp lane-accurately through a compiled program.
// Instances are pooled; register rows are reused by capacity.
type CSIMTWarp struct {
	c      *Compiled
	launch *Launch

	WarpID    int
	BlockID   int
	WarpInBlk int
	SMID      int

	regs     [][WarpWidth]uint32
	shSpill  [][WarpWidth]uint32
	locSpill [][WarpWidth]uint32
	shared   []uint32

	frags []fragment
	fi    int // fragment index of the committing instruction

	lineBuf []uint64

	steps    int
	cks      uint64
	storeCnt int
	err      error
}

var csimtPool = sync.Pool{New: func() any { return new(CSIMTWarp) }}

// NewCSIMTWarp creates (or recycles) a compiled lane-accurate executor.
// The program must have exactly one function and no calls.
func NewCSIMTWarp(c *Compiled, lc *Launch, warpID int, shared []uint32) (*CSIMTWarp, error) {
	if c.simtErr != nil {
		return nil, c.simtErr
	}
	w := csimtPool.Get().(*CSIMTWarp)
	wpb := lc.WarpsPerBlock()
	w.c = c
	w.launch = lc
	w.WarpID = lc.FirstWarp + warpID
	w.BlockID = w.WarpID / wpb
	w.WarpInBlk = w.WarpID % wpb
	w.SMID = 0
	w.regs = reuseZeroedRows(w.regs, c.simtNRegs)
	w.shSpill = reuseZeroedRows(w.shSpill, c.layout.SharedSpillSlots)
	w.locSpill = reuseZeroedRows(w.locSpill, c.layout.LocalSpillSlots)
	w.shared = shared
	w.frags = append(w.frags[:0], fragment{pc: 0, mask: fullMask})
	w.fi = 0
	w.err = nil
	w.steps, w.storeCnt = 0, 0
	w.cks = fnvOffset
	return w, nil
}

func reuseZeroedRows(buf [][WarpWidth]uint32, n int) [][WarpWidth]uint32 {
	if n == 0 {
		return buf[:0]
	}
	if cap(buf) < n {
		return make([][WarpWidth]uint32, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// Release returns the warp to the pool.
func (w *CSIMTWarp) Release() {
	w.c, w.launch, w.shared = nil, nil, nil
	csimtPool.Put(w)
}

// Done reports whether every lane has exited.
func (w *CSIMTWarp) Done() bool { return len(w.frags) == 0 }

// Result reports executed instruction count, store checksum, and stores.
func (w *CSIMTWarp) Result() (int, uint64, int) { return w.steps, w.cks, w.storeCnt }

// current returns the index of the fragment with the smallest pc.
func (w *CSIMTWarp) current() int {
	best := 0
	for i := 1; i < len(w.frags); i++ {
		if w.frags[i].pc < w.frags[best].pc {
			best = i
		}
	}
	return best
}

// Fill resolves the min-pc fragment's next instruction from its template,
// gathering the per-lane memory footprint exactly as SIMTWarp.Peek does.
func (w *CSIMTWarp) Fill(ev *Event) {
	if len(w.frags) == 0 {
		*ev = Event{Kind: KindExit, AbsDst: -1}
		return
	}
	fr := &w.frags[w.current()]
	op := &w.c.simt[fr.pc]
	*ev = op.tmpl
	ev.ActiveLanes = bits.OnesCount32(fr.mask)
	switch op.gath {
	case cgNone:
	case cgGlobal:
		w.lineBuf = w.lineBuf[:0]
		src := &w.regs[op.aSrc]
		mask := fr.mask
		first := true
		for lane := 0; lane < WarpWidth; lane++ {
			if mask&(1<<lane) == 0 {
				continue
			}
			addr := src[lane] + op.aImm
			if first {
				ev.Addr = addr
				first = false
			}
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
		}
		ev.Lines = w.lineBuf
	case cgShared:
		var banks [WarpWidth]uint32
		var bankCnt [WarpWidth]uint8
		src := &w.regs[op.aSrc]
		mask := fr.mask
		first := true
		for lane := 0; lane < WarpWidth; lane++ {
			if mask&(1<<lane) == 0 {
				continue
			}
			addr := src[lane] + op.aImm
			if first {
				ev.Addr = addr
				first = false
			}
			bank := (addr >> 2) % WarpWidth
			word := addr >> 2
			// Distinct words on the same bank conflict; the same word
			// broadcasts for free.
			if bankCnt[bank] == 0 || banks[bank] != word {
				bankCnt[bank]++
				banks[bank] = word
			}
		}
		worst := 1
		for _, cnt := range bankCnt {
			if int(cnt) > worst {
				worst = int(cnt)
			}
		}
		ev.BankConflicts = worst
	case cgLocal:
		ev.Addr = uint32(LocalSlotBytes * (w.WarpID*w.c.locStride + int(op.aImm)))
	}
}

// Commit executes the min-pc fragment's instruction across its lanes.
func (w *CSIMTWarp) Commit() error {
	if len(w.frags) == 0 {
		return nil
	}
	fi := w.current()
	w.fi = fi
	fr := &w.frags[fi]
	w.steps++
	w.c.simt[fr.pc].exec(w, fr)
	return w.err
}

// Peek implements Executor for differential tests.
func (w *CSIMTWarp) Peek() Event {
	var ev Event
	w.Fill(&ev)
	return ev
}

// Step implements Executor for differential tests.
func (w *CSIMTWarp) Step() (Event, error) {
	var ev Event
	w.Fill(&ev)
	return ev, w.Commit()
}

// adv advances past a straight-line instruction.
func (w *CSIMTWarp) adv(fr *fragment) {
	fr.pc++
	if len(w.frags) > 1 {
		w.merge()
	}
}

// merge coalesces fragments that reached the same pc (reconvergence),
// mirroring SIMTWarp.mergeFragments.
func (w *CSIMTWarp) merge() {
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

func (w *CSIMTWarp) broadcastSpecial(sp isa.Sp) uint32 {
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

// compileSIMTOp builds the lane-batched closure for one instruction. Each
// case mirrors the corresponding SIMTWarp.Step case exactly; the hot ALU
// ops carry a branch-free loop for the full-mask (converged) case.
func compileSIMTOp(in *isa.Instr) func(*CSIMTWarp, *fragment) {
	d, s0, s1, s2 := int(in.Dst), int(in.Src[0]), int(in.Src[1]), int(in.Src[2])
	ui := uint32(in.Imm)
	wn := in.W()
	switch in.Op {
	case isa.OpIAdd:
		return func(w *CSIMTWarp, fr *fragment) {
			dst, sa, sb := &w.regs[d], &w.regs[s0], &w.regs[s1]
			if mask := fr.mask; mask == fullMask {
				for l := 0; l < WarpWidth; l++ {
					dst[l] = sa[l] + sb[l]
				}
			} else {
				for l := 0; l < WarpWidth; l++ {
					if mask&(1<<l) != 0 {
						dst[l] = sa[l] + sb[l]
					}
				}
			}
			w.adv(fr)
		}
	case isa.OpISub:
		return func(w *CSIMTWarp, fr *fragment) {
			dst, sa, sb := &w.regs[d], &w.regs[s0], &w.regs[s1]
			if mask := fr.mask; mask == fullMask {
				for l := 0; l < WarpWidth; l++ {
					dst[l] = sa[l] - sb[l]
				}
			} else {
				for l := 0; l < WarpWidth; l++ {
					if mask&(1<<l) != 0 {
						dst[l] = sa[l] - sb[l]
					}
				}
			}
			w.adv(fr)
		}
	case isa.OpIMul:
		return func(w *CSIMTWarp, fr *fragment) {
			dst, sa, sb := &w.regs[d], &w.regs[s0], &w.regs[s1]
			if mask := fr.mask; mask == fullMask {
				for l := 0; l < WarpWidth; l++ {
					dst[l] = sa[l] * sb[l]
				}
			} else {
				for l := 0; l < WarpWidth; l++ {
					if mask&(1<<l) != 0 {
						dst[l] = sa[l] * sb[l]
					}
				}
			}
			w.adv(fr)
		}
	case isa.OpIMad:
		return func(w *CSIMTWarp, fr *fragment) {
			dst, sa, sb, sc := &w.regs[d], &w.regs[s0], &w.regs[s1], &w.regs[s2]
			mask := fr.mask
			for l := 0; l < WarpWidth; l++ {
				if mask&(1<<l) != 0 {
					dst[l] = sa[l]*sb[l] + sc[l]
				}
			}
			w.adv(fr)
		}
	case isa.OpIMin:
		return func(w *CSIMTWarp, fr *fragment) {
			dst, sa, sb := &w.regs[d], &w.regs[s0], &w.regs[s1]
			mask := fr.mask
			for l := 0; l < WarpWidth; l++ {
				if mask&(1<<l) != 0 {
					x, y := int32(sa[l]), int32(sb[l])
					if y < x {
						x = y
					}
					dst[l] = uint32(x)
				}
			}
			w.adv(fr)
		}
	case isa.OpIMax:
		return func(w *CSIMTWarp, fr *fragment) {
			dst, sa, sb := &w.regs[d], &w.regs[s0], &w.regs[s1]
			mask := fr.mask
			for l := 0; l < WarpWidth; l++ {
				if mask&(1<<l) != 0 {
					x, y := int32(sa[l]), int32(sb[l])
					if y > x {
						x = y
					}
					dst[l] = uint32(x)
				}
			}
			w.adv(fr)
		}
	case isa.OpAnd:
		return func(w *CSIMTWarp, fr *fragment) {
			dst, sa, sb := &w.regs[d], &w.regs[s0], &w.regs[s1]
			if mask := fr.mask; mask == fullMask {
				for l := 0; l < WarpWidth; l++ {
					dst[l] = sa[l] & sb[l]
				}
			} else {
				for l := 0; l < WarpWidth; l++ {
					if mask&(1<<l) != 0 {
						dst[l] = sa[l] & sb[l]
					}
				}
			}
			w.adv(fr)
		}
	case isa.OpOr:
		return func(w *CSIMTWarp, fr *fragment) {
			dst, sa, sb := &w.regs[d], &w.regs[s0], &w.regs[s1]
			if mask := fr.mask; mask == fullMask {
				for l := 0; l < WarpWidth; l++ {
					dst[l] = sa[l] | sb[l]
				}
			} else {
				for l := 0; l < WarpWidth; l++ {
					if mask&(1<<l) != 0 {
						dst[l] = sa[l] | sb[l]
					}
				}
			}
			w.adv(fr)
		}
	case isa.OpXor:
		return func(w *CSIMTWarp, fr *fragment) {
			dst, sa, sb := &w.regs[d], &w.regs[s0], &w.regs[s1]
			if mask := fr.mask; mask == fullMask {
				for l := 0; l < WarpWidth; l++ {
					dst[l] = sa[l] ^ sb[l]
				}
			} else {
				for l := 0; l < WarpWidth; l++ {
					if mask&(1<<l) != 0 {
						dst[l] = sa[l] ^ sb[l]
					}
				}
			}
			w.adv(fr)
		}
	case isa.OpShl:
		return func(w *CSIMTWarp, fr *fragment) {
			dst, sa, sb := &w.regs[d], &w.regs[s0], &w.regs[s1]
			if mask := fr.mask; mask == fullMask {
				for l := 0; l < WarpWidth; l++ {
					dst[l] = sa[l] << (sb[l] & 31)
				}
			} else {
				for l := 0; l < WarpWidth; l++ {
					if mask&(1<<l) != 0 {
						dst[l] = sa[l] << (sb[l] & 31)
					}
				}
			}
			w.adv(fr)
		}
	case isa.OpShr:
		return func(w *CSIMTWarp, fr *fragment) {
			dst, sa, sb := &w.regs[d], &w.regs[s0], &w.regs[s1]
			if mask := fr.mask; mask == fullMask {
				for l := 0; l < WarpWidth; l++ {
					dst[l] = sa[l] >> (sb[l] & 31)
				}
			} else {
				for l := 0; l < WarpWidth; l++ {
					if mask&(1<<l) != 0 {
						dst[l] = sa[l] >> (sb[l] & 31)
					}
				}
			}
			w.adv(fr)
		}
	case isa.OpISet:
		cmp := in.Cmp
		return func(w *CSIMTWarp, fr *fragment) {
			dst, sa, sb := &w.regs[d], &w.regs[s0], &w.regs[s1]
			if mask := fr.mask; mask == fullMask {
				for l := 0; l < WarpWidth; l++ {
					dst[l] = boolWord(cmpInt(cmp, int32(sa[l]), int32(sb[l])))
				}
			} else {
				for l := 0; l < WarpWidth; l++ {
					if mask&(1<<l) != 0 {
						dst[l] = boolWord(cmpInt(cmp, int32(sa[l]), int32(sb[l])))
					}
				}
			}
			w.adv(fr)
		}
	case isa.OpFAdd:
		return func(w *CSIMTWarp, fr *fragment) {
			dst, sa, sb := &w.regs[d], &w.regs[s0], &w.regs[s1]
			if mask := fr.mask; mask == fullMask {
				for l := 0; l < WarpWidth; l++ {
					dst[l] = math.Float32bits(math.Float32frombits(sa[l]) + math.Float32frombits(sb[l]))
				}
			} else {
				for l := 0; l < WarpWidth; l++ {
					if mask&(1<<l) != 0 {
						dst[l] = math.Float32bits(math.Float32frombits(sa[l]) + math.Float32frombits(sb[l]))
					}
				}
			}
			w.adv(fr)
		}
	case isa.OpFSub:
		return func(w *CSIMTWarp, fr *fragment) {
			dst, sa, sb := &w.regs[d], &w.regs[s0], &w.regs[s1]
			mask := fr.mask
			for l := 0; l < WarpWidth; l++ {
				if mask&(1<<l) != 0 {
					dst[l] = math.Float32bits(math.Float32frombits(sa[l]) - math.Float32frombits(sb[l]))
				}
			}
			w.adv(fr)
		}
	case isa.OpFMul:
		return func(w *CSIMTWarp, fr *fragment) {
			dst, sa, sb := &w.regs[d], &w.regs[s0], &w.regs[s1]
			if mask := fr.mask; mask == fullMask {
				for l := 0; l < WarpWidth; l++ {
					dst[l] = math.Float32bits(math.Float32frombits(sa[l]) * math.Float32frombits(sb[l]))
				}
			} else {
				for l := 0; l < WarpWidth; l++ {
					if mask&(1<<l) != 0 {
						dst[l] = math.Float32bits(math.Float32frombits(sa[l]) * math.Float32frombits(sb[l]))
					}
				}
			}
			w.adv(fr)
		}
	case isa.OpFFma:
		return func(w *CSIMTWarp, fr *fragment) {
			dst, sa, sb, sc := &w.regs[d], &w.regs[s0], &w.regs[s1], &w.regs[s2]
			mask := fr.mask
			for l := 0; l < WarpWidth; l++ {
				if mask&(1<<l) != 0 {
					x := math.Float32frombits(sa[l])
					y := math.Float32frombits(sb[l])
					z := math.Float32frombits(sc[l])
					dst[l] = math.Float32bits(x*y + z)
				}
			}
			w.adv(fr)
		}
	case isa.OpFMin:
		return func(w *CSIMTWarp, fr *fragment) {
			dst, sa, sb := &w.regs[d], &w.regs[s0], &w.regs[s1]
			mask := fr.mask
			for l := 0; l < WarpWidth; l++ {
				if mask&(1<<l) != 0 {
					x := math.Float32frombits(sa[l])
					y := math.Float32frombits(sb[l])
					if y < x {
						x = y
					}
					dst[l] = math.Float32bits(x)
				}
			}
			w.adv(fr)
		}
	case isa.OpFMax:
		return func(w *CSIMTWarp, fr *fragment) {
			dst, sa, sb := &w.regs[d], &w.regs[s0], &w.regs[s1]
			mask := fr.mask
			for l := 0; l < WarpWidth; l++ {
				if mask&(1<<l) != 0 {
					x := math.Float32frombits(sa[l])
					y := math.Float32frombits(sb[l])
					if y > x {
						x = y
					}
					dst[l] = math.Float32bits(x)
				}
			}
			w.adv(fr)
		}
	case isa.OpFSet:
		cmp := in.Cmp
		return func(w *CSIMTWarp, fr *fragment) {
			dst, sa, sb := &w.regs[d], &w.regs[s0], &w.regs[s1]
			mask := fr.mask
			for l := 0; l < WarpWidth; l++ {
				if mask&(1<<l) != 0 {
					dst[l] = boolWord(cmpFloat(cmp, math.Float32frombits(sa[l]), math.Float32frombits(sb[l])))
				}
			}
			w.adv(fr)
		}
	case isa.OpF2I:
		return func(w *CSIMTWarp, fr *fragment) {
			dst, sa := &w.regs[d], &w.regs[s0]
			mask := fr.mask
			for l := 0; l < WarpWidth; l++ {
				if mask&(1<<l) == 0 {
					continue
				}
				fv := float64(math.Float32frombits(sa[l]))
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
				dst[l] = uint32(iv)
			}
			w.adv(fr)
		}
	case isa.OpI2F:
		return func(w *CSIMTWarp, fr *fragment) {
			dst, sa := &w.regs[d], &w.regs[s0]
			mask := fr.mask
			for l := 0; l < WarpWidth; l++ {
				if mask&(1<<l) != 0 {
					dst[l] = math.Float32bits(float32(int32(sa[l])))
				}
			}
			w.adv(fr)
		}
	case isa.OpMov:
		return func(w *CSIMTWarp, fr *fragment) {
			mask := fr.mask
			for k := 0; k < wn; k++ {
				dst, src := &w.regs[d+k], &w.regs[s0+k]
				if mask == fullMask {
					*dst = *src
					continue
				}
				for l := 0; l < WarpWidth; l++ {
					if mask&(1<<l) != 0 {
						dst[l] = src[l]
					}
				}
			}
			w.adv(fr)
		}
	case isa.OpMovI:
		return func(w *CSIMTWarp, fr *fragment) {
			dst := &w.regs[d]
			if mask := fr.mask; mask == fullMask {
				for l := 0; l < WarpWidth; l++ {
					dst[l] = ui
				}
			} else {
				for l := 0; l < WarpWidth; l++ {
					if mask&(1<<l) != 0 {
						dst[l] = ui
					}
				}
			}
			w.adv(fr)
		}
	case isa.OpRdSp:
		if in.Sp == isa.SpLaneID {
			return func(w *CSIMTWarp, fr *fragment) {
				dst := &w.regs[d]
				if mask := fr.mask; mask == fullMask {
					for l := 0; l < WarpWidth; l++ {
						dst[l] = uint32(l)
					}
				} else {
					for l := 0; l < WarpWidth; l++ {
						if mask&(1<<l) != 0 {
							dst[l] = uint32(l)
						}
					}
				}
				w.adv(fr)
			}
		}
		sp := in.Sp
		return func(w *CSIMTWarp, fr *fragment) {
			v := w.broadcastSpecial(sp)
			dst := &w.regs[d]
			mask := fr.mask
			for l := 0; l < WarpWidth; l++ {
				if mask&(1<<l) != 0 {
					dst[l] = v
				}
			}
			w.adv(fr)
		}
	case isa.OpLdG:
		if wn == 1 {
			return func(w *CSIMTWarp, fr *fragment) {
				dst, src := &w.regs[d], &w.regs[s0]
				mask := fr.mask
				for l := 0; l < WarpWidth; l++ {
					if mask&(1<<l) != 0 {
						dst[l] = GlobalData(src[l] + ui)
					}
				}
				w.adv(fr)
			}
		}
		return func(w *CSIMTWarp, fr *fragment) {
			src := &w.regs[s0]
			mask := fr.mask
			for l := 0; l < WarpWidth; l++ {
				if mask&(1<<l) == 0 {
					continue
				}
				addr := src[l] + ui
				for k := 0; k < wn; k++ {
					w.regs[d+k][l] = GlobalData(addr + uint32(4*k))
				}
			}
			w.adv(fr)
		}
	case isa.OpStG:
		return func(w *CSIMTWarp, fr *fragment) {
			src := &w.regs[s0]
			mask := fr.mask
			h := w.cks
			cnt := 0
			for l := 0; l < WarpWidth; l++ {
				if mask&(1<<l) == 0 {
					continue
				}
				addr := src[l] + ui
				for k := 0; k < wn; k++ {
					a := addr + uint32(4*k)
					v := w.regs[s1+k][l]
					h = (h ^ uint64(a)) * fnvPrime
					h = (h ^ uint64(v)) * fnvPrime
					cnt++
				}
			}
			w.cks = h
			w.storeCnt += cnt
			w.adv(fr)
		}
	case isa.OpLdS:
		return func(w *CSIMTWarp, fr *fragment) {
			src := &w.regs[s0]
			mask := fr.mask
			n := uint32(len(w.shared))
			for l := 0; l < WarpWidth; l++ {
				if mask&(1<<l) == 0 {
					continue
				}
				addr := src[l] + ui
				for k := 0; k < wn; k++ {
					var v uint32
					if n != 0 {
						v = w.shared[((addr+uint32(4*k))>>2)%n]
					}
					w.regs[d+k][l] = v
				}
			}
			w.adv(fr)
		}
	case isa.OpStS:
		return func(w *CSIMTWarp, fr *fragment) {
			src := &w.regs[s0]
			mask := fr.mask
			n := uint32(len(w.shared))
			for l := 0; l < WarpWidth; l++ {
				if mask&(1<<l) == 0 {
					continue
				}
				addr := src[l] + ui
				if n != 0 {
					for k := 0; k < wn; k++ {
						w.shared[((addr+uint32(4*k))>>2)%n] = w.regs[s1+k][l]
					}
				}
			}
			w.adv(fr)
		}
	case isa.OpSpillSS:
		ii := int(in.Imm)
		return func(w *CSIMTWarp, fr *fragment) {
			mask := fr.mask
			for l := 0; l < WarpWidth; l++ {
				if mask&(1<<l) == 0 {
					continue
				}
				for k := 0; k < wn; k++ {
					w.shSpill[ii+k][l] = w.regs[s0+k][l]
				}
			}
			w.adv(fr)
		}
	case isa.OpSpillSL:
		ii := int(in.Imm)
		return func(w *CSIMTWarp, fr *fragment) {
			mask := fr.mask
			for l := 0; l < WarpWidth; l++ {
				if mask&(1<<l) == 0 {
					continue
				}
				for k := 0; k < wn; k++ {
					w.regs[d+k][l] = w.shSpill[ii+k][l]
				}
			}
			w.adv(fr)
		}
	case isa.OpSpillLS:
		ii := int(in.Imm)
		return func(w *CSIMTWarp, fr *fragment) {
			mask := fr.mask
			for l := 0; l < WarpWidth; l++ {
				if mask&(1<<l) == 0 {
					continue
				}
				for k := 0; k < wn; k++ {
					w.locSpill[ii+k][l] = w.regs[s0+k][l]
				}
			}
			w.adv(fr)
		}
	case isa.OpSpillLL:
		ii := int(in.Imm)
		return func(w *CSIMTWarp, fr *fragment) {
			mask := fr.mask
			for l := 0; l < WarpWidth; l++ {
				if mask&(1<<l) == 0 {
					continue
				}
				for k := 0; k < wn; k++ {
					w.regs[d+k][l] = w.locSpill[ii+k][l]
				}
			}
			w.adv(fr)
		}
	case isa.OpBra:
		tgt := int(in.Tgt)
		return func(w *CSIMTWarp, fr *fragment) {
			fr.pc = tgt
			w.merge()
		}
	case isa.OpCbr:
		tgt := int(in.Tgt)
		return func(w *CSIMTWarp, fr *fragment) {
			src := &w.regs[s0]
			mask := fr.mask
			var taken uint32
			for l := 0; l < WarpWidth; l++ {
				if mask&(1<<l) != 0 && src[l] != 0 {
					taken |= 1 << l
				}
			}
			notTaken := mask &^ taken
			switch {
			case notTaken == 0:
				fr.pc = tgt
			case taken == 0:
				fr.pc++
			default:
				// Divergence: split into two fragments.
				fr.mask = notTaken
				fr.pc++
				w.frags = append(w.frags, fragment{pc: tgt, mask: taken})
			}
			w.merge()
		}
	case isa.OpBar:
		return func(w *CSIMTWarp, fr *fragment) {
			if len(w.frags) != 1 {
				w.err = ErrDivergedBarrier
				return
			}
			w.adv(fr)
		}
	case isa.OpExit:
		return func(w *CSIMTWarp, fr *fragment) {
			w.frags = append(w.frags[:w.fi], w.frags[w.fi+1:]...)
		}
	default:
		op := in.Op
		return func(w *CSIMTWarp, fr *fragment) {
			w.err = fmt.Errorf("interp: SIMT mode cannot execute %s", op)
		}
	}
}
