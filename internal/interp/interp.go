// Package interp executes OASM programs functionally at warp granularity.
//
// It serves two masters: the test suite uses it to check that compiler
// transformations preserve semantics (the store checksum of a kernel must
// not change when it is re-allocated for a different occupancy), and the
// timing simulator (package sim) uses its stepping API as the execution
// core, reading each instruction's resolved physical registers and memory
// address before committing it.
//
// Execution model: one reference executor, Warp, runs a warp as one lane
// when its program never reads LANEID (every lane would compute the same
// values, and the paper's occupancy phenomena are warp-granular) and as
// 32 lanes with divergence, coalescing and bank conflicts when it does.
// CWarp is its compiled one-lane twin. Global memory is deterministic
// pseudo-data: loads of address a return hash(a), stores are logged into
// a per-warp checksum. This makes results independent of warp
// scheduling, so the functional interpreter and the timing simulator
// observe identical semantics. Local memory and spill slots are private
// read-write state; user shared memory is block-private read-write state
// (benchmarks use it warp-disjointly).
package interp

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/isa"
)

// ErrStepLimit is returned when a warp exceeds its dynamic step budget
// (use it to catch accidental infinite loops in kernels under test).
var ErrStepLimit = errors.New("interp: step limit exceeded")

// ErrDivergedBarrier is the executor's fault when a warp whose lanes have
// diverged reaches a BAR.
var ErrDivergedBarrier = errors.New("interp: BAR executed by a diverged warp")

// Space identifies the memory space touched by an instruction event.
type Space uint8

// Memory spaces, numbered as isa.Op.Space returns them.
const (
	SpaceNone Space = iota
	SpaceGlobal
	SpaceShared // user shared memory and shared-memory spill slots
	SpaceLocal  // per-thread local memory (spills), L1-backed
)

// Kind classifies an instruction event for the timing simulator.
type Kind uint8

// Event kinds, numbered as isa.Op.Class returns them; TestOpTable fails if
// this numbering or Space's parts from isa's.
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
// resolved to absolute physical register indices and memory addresses, and
// its position as PC, the flat program counter isa.Program.PCBases numbers.
//
// It is 40 bytes on a 64-bit host: the compiled backend keeps one per
// instruction of every program it has run, as a template. Register indices
// fit int16 because RegFileSize bounds every frame-absolute register, and
// widths and counts fit uint8 because isa.Validate bounds W to 4.
type Event struct {
	Instr *isa.Instr
	// Lane holds a 32-lane warp's extras for a global or user shared
	// access; it is nil on a one-lane warp and on any other event.
	Lane   *LaneEvent
	Addr   uint32   // byte address for memory events
	AbsDst int16    // absolute dst register (-1 if none); spans DstW slots
	AbsSrc [3]int16 // absolute src registers (-1 terminated)
	Kind   Kind
	Space  Space
	NSrc   uint8
	Bytes  uint8 // transfer size for memory events

	// DstW and SrcW cache Instr.W() / Instr.SrcWidth(i) so the simulator's
	// scoreboard does not re-derive operand widths on every issue attempt.
	// Every executor's Fill (and so Peek) populates them; DstW is zero when
	// there is no destination.
	DstW uint8
	SrcW [3]uint8

	// PC is the instruction's flat program counter (isa.Program.PCBases):
	// the profiler and the block oracle locate instructions by it. It is
	// zero on the KindExit event of a finished warp.
	PC int32
}

// LaneEvent is what a 32-lane warp adds to a memory event. Lines is the
// set of distinct cache lines the active lanes touch on a global access
// (nil on a shared access). BankConflicts is the worst per-bank
// multiplicity of a user shared-memory access (1 = conflict-free; the
// hardware serializes conflicting lanes; 0 on a global access).
type LaneEvent struct {
	Lines         []uint64
	BankConflicts int
}

// resolve sets the event to in at frame base and flat PC pc: its Kind,
// Space and (for a memory access) Bytes from the opcode table, and its
// register operands as absolute indices with their widths.
func (ev *Event) resolve(in *isa.Instr, base, pc int) {
	*ev = Event{Instr: in, Kind: Kind(in.Op.Class()), Space: Space(in.Op.Space()),
		AbsDst: -1, AbsSrc: [3]int16{-1, -1, -1}, PC: int32(pc)}
	if ev.Space != SpaceNone {
		ev.Bytes = uint8(4 * in.W())
	}
	if in.HasDst() {
		ev.AbsDst = int16(base + int(in.Dst))
		ev.DstW = uint8(in.W())
	}
	ev.NSrc = uint8(in.NumSrcs())
	for i := 0; i < int(ev.NSrc); i++ {
		ev.AbsSrc[i] = int16(base + int(in.Src[i]))
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

	pcBase      []int   // per function: its first flat PC (isa.Program.PCBases)
	frameSize   []int   // per function: registers its frame occupies
	callBase    [][]int // per function, by pc: a CALL's frame base Bk (nil without calls)
	sharedBase  []int   // per function: first shared spill slot
	localBase   []int   // per function: first local spill slot
	sharedSlots []int
	localSlots  []int
}

// NewLayout computes the static layout of a validated program.
func NewLayout(p *isa.Program) (*Layout, error) {
	n := len(p.Funcs)
	l := &Layout{
		pcBase:      p.PCBases(),
		frameSize:   make([]int, n),
		callBase:    make([][]int, n),
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
		k := 0
		for i := range f.Instrs {
			if f.Instrs[i].Op == isa.OpCall {
				b := l.frameSize[fi]
				if f.CallBounds != nil {
					if k >= len(f.CallBounds) {
						return nil, fmt.Errorf("interp: %s: call bounds shorter than call count", f.Name)
					}
					b = f.CallBounds[k]
				}
				if l.callBase[fi] == nil {
					l.callBase[fi] = make([]int, len(f.Instrs))
				}
				l.callBase[fi][i] = b
				k++
			}
		}
	}

	// Propagate worst-case bases callers first: each is final when read.
	order, err := p.CallOrder()
	if err != nil {
		return nil, err
	}
	regBase := make([]int, n)
	shBase := make([]int, n)
	locBase := make([]int, n)
	for fi := range p.Funcs {
		regBase[fi], shBase[fi], locBase[fi] = -1, -1, -1
	}
	regBase[0], shBase[0], locBase[0] = 0, 0, 0
	for _, fi := range order {
		if regBase[fi] < 0 {
			continue
		}
		for i, in := range p.Funcs[fi].Instrs {
			if in.Op != isa.OpCall {
				continue
			}
			callee := int(in.Tgt)
			rb := regBase[fi] + l.callBase[fi][i]
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

// CheckRegFile reports an error when the deepest call chain's register
// high-water does not fit RegFileSize. NewWarp makes this check; a launch
// loop that sizes its register files from the layout makes it once up front.
func (l *Layout) CheckRegFile() error {
	if l.RegHighWater > RegFileSize {
		return fmt.Errorf("interp: program needs %d registers, file holds %d",
			l.RegHighWater, RegFileSize)
	}
	return nil
}

// ErrSIMTUnsupported is returned for a lane-variant program with calls:
// lane-accurate execution keeps one frame (divergent call stacks are out
// of scope, as on early hardware).
var ErrSIMTUnsupported = errors.New("interp: lane-accurate execution requires a single function without calls")

// WarpWidth is the number of lanes per warp.
const WarpWidth = 32

const lineBytes = 128

type frame struct {
	fn      int
	pc      int // a suspended caller's return address
	base    int
	shBase  int
	locBase int
	retDst  int // absolute register for return value, -1 if none
}

// fragment is a set of lanes at one pc of the top frame.
type fragment struct {
	pc   int
	mask uint32
}

// Warp is the reference stepping executor for a single warp.
//
// A warp whose program reads LANEID runs all WarpWidth lanes; any other
// runs one, since every lane would compute the same values. Divergence
// uses MinPC fragment scheduling: the warp is a set of (pc, mask)
// fragments, the fragment with the smallest pc executes next, and
// fragments that meet at the same pc merge — guaranteeing reconvergence
// for reducible control flow without post-dominator analysis. A one-lane
// warp always has exactly one fragment; only it executes CALL/RET, on a
// stack of frames.
type Warp struct {
	prog   *isa.Program
	layout *Layout
	launch *Launch

	// Identity.
	WarpID    int // global warp index
	BlockID   int
	WarpInBlk int
	SMID      int

	lanes    int      // 1, or WarpWidth for a lane-variant program
	nreg     int      // registers per lane: the layout's high-water
	regs     []uint32 // lane-major: lane l's file is regs[l*nreg:]
	shSpill  []uint32 // lane-major, SharedSpillSlots per lane
	locSpill []uint32 // lane-major, LocalSpillSlots per lane
	shared   []uint32 // block shared memory (user); shared across warps of a block

	stack   []frame
	code    []isa.Instr // the top frame's function body
	frags   []fragment  // empty once every lane has exited
	lineBuf []uint64
	lane    LaneEvent // what Fill's Event.Lane points at

	// Stats.
	Steps    int
	Checksum uint64
	StoreCnt int

	// StoreSink, when set, receives every global store as it commits: the
	// byte address and the W() words one lane writes (a view into the
	// register file, valid only during the call). The differential oracle
	// captures store streams through it instead of Peeking every
	// instruction.
	StoreSink func(addr uint32, words []uint32)
}

// NewWarp creates a warp executor. shared is the block's user shared-memory
// array (length Prog.SharedBytes/4, rounded up); it may be shared between
// the warps of one block, or nil if the program declares none. It fails
// when the deepest call chain does not fit RegFileSize, and with
// ErrSIMTUnsupported for a lane-variant program with calls.
func NewWarp(lc *Launch, layout *Layout, warpID int, shared []uint32) (*Warp, error) {
	if err := layout.CheckRegFile(); err != nil {
		return nil, err
	}
	p := lc.Prog
	lanes, mask := 1, uint32(1)
	if p.UsesLaneID() {
		if len(p.Funcs) != 1 || slices.ContainsFunc(p.Entry().Instrs, func(in isa.Instr) bool {
			return in.Op == isa.OpCall || in.Op == isa.OpRet
		}) {
			return nil, ErrSIMTUnsupported
		}
		lanes, mask = WarpWidth, 0xFFFFFFFF
	}
	wpb := lc.WarpsPerBlock()
	gid := lc.FirstWarp + warpID
	return &Warp{
		prog:      p,
		layout:    layout,
		launch:    lc,
		WarpID:    gid,
		BlockID:   gid / wpb,
		WarpInBlk: gid % wpb,
		lanes:     lanes,
		nreg:      layout.RegHighWater,
		regs:      make([]uint32, lanes*layout.RegHighWater),
		shSpill:   make([]uint32, lanes*layout.SharedSpillSlots),
		locSpill:  make([]uint32, lanes*layout.LocalSpillSlots),
		shared:    shared,
		stack:     []frame{{fn: 0, retDst: -1}},
		code:      p.Funcs[0].Instrs,
		frags:     []fragment{{pc: 0, mask: mask}},
		Checksum:  fnvOffset,
	}, nil
}

// Done reports whether every lane has exited.
func (w *Warp) Done() bool { return len(w.frags) == 0 }

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

// current returns the index of the fragment with the smallest pc.
func (w *Warp) current() int {
	best := 0
	for i := 1; i < len(w.frags); i++ {
		if w.frags[i].pc < w.frags[best].pc {
			best = i
		}
	}
	return best
}

// Fill is Peek into caller-owned storage (StepExecutor). On a
// lane-variant warp ev.Lane points into the warp: it stays valid until
// this warp's next Fill.
func (w *Warp) Fill(ev *Event) {
	if w.Done() {
		*ev = Event{Kind: KindExit, AbsDst: -1}
		return
	}
	fg := &w.frags[w.current()]
	fr := &w.stack[len(w.stack)-1]
	in := &w.code[fg.pc]
	ev.resolve(in, fr.base, w.layout.pcBase[fr.fn]+fg.pc)
	switch {
	case ev.Space == SpaceNone:
	case in.IsMem():
		w.gather(ev, fg.mask, int(ev.AbsSrc[0]), uint32(in.Imm))
	case ev.Space == SpaceShared:
		ev.Addr = uint32(4 * (fr.shBase + int(in.Imm)))
	default:
		// Each warp/slot pair occupies its own local cache line.
		ev.Addr = uint32(LocalSlotBytes * (w.WarpID*max(w.layout.LocalSpillSlots, 1) + fr.locBase + int(in.Imm)))
	}
}

// gather sets a memory event's address from its first active lane's
// address register (frame-absolute index reg). On a lane-variant warp it
// also coalesces global accesses into their distinct cache lines, and
// counts shared-memory bank conflicts (32 banks, 4-byte interleave:
// distinct words on the same bank serialize, the same word broadcasts).
func (w *Warp) gather(ev *Event, mask uint32, reg int, imm uint32) {
	ev.Addr = w.regs[bits.TrailingZeros32(mask)*w.nreg+reg] + imm
	if w.lanes == 1 {
		return
	}
	w.lineBuf = w.lineBuf[:0]
	var wordBuf [WarpWidth]uint32
	words := wordBuf[:0] // distinct shared words seen so far
	var bankCnt [WarpWidth]uint8
	worst := uint8(1)
	for m := mask; m != 0; m &= m - 1 {
		addr := w.regs[bits.TrailingZeros32(m)*w.nreg+reg] + imm
		if ev.Space == SpaceGlobal {
			if line := uint64(addr) / lineBytes; !slices.Contains(w.lineBuf, line) {
				w.lineBuf = append(w.lineBuf, line)
			}
			continue
		}
		if word := addr >> 2; !slices.Contains(words, word) {
			words = append(words, word)
			bank := word % WarpWidth
			bankCnt[bank]++
			worst = max(worst, bankCnt[bank])
		}
	}
	if ev.Space == SpaceGlobal {
		w.lane = LaneEvent{Lines: w.lineBuf}
	} else {
		w.lane = LaneEvent{BankConflicts: int(worst)}
	}
	ev.Lane = &w.lane
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

// ReadAbsReg returns lane 0's value of an absolute register-file slot (as
// resolved by Peek's AbsDst/AbsSrc fields). Out-of-range slots read as 0.
// An observer uses this to capture a Peeked instruction's operands before
// the step commits.
func (w *Warp) ReadAbsReg(i int) uint32 {
	if i < 0 || i >= w.nreg {
		return 0
	}
	return w.regs[i]
}

// Step commits the current instruction. It returns the event executed.
func (w *Warp) Step() (Event, error) {
	ev := w.Peek()
	return ev, w.Advance()
}

// Advance commits the min-pc fragment's current instruction over its
// active lanes without resolving it into an Event: the functional half of
// Step, for callers that only need the architectural effects (registers,
// memory, the store checksum). On a finished warp it is a no-op.
func (w *Warp) Advance() error {
	if w.Done() {
		return nil
	}
	fi := w.current()
	fg := &w.frags[fi]
	fr := &w.stack[len(w.stack)-1]
	in := &w.code[fg.pc]
	w.Steps++
	d, s0, s1, s2 := int(in.Dst), int(in.Src[0]), int(in.Src[1]), int(in.Src[2])

	switch in.Op {
	case isa.OpBra:
		fg.pc = int(in.Tgt)
		w.mergeFragments()
		return nil
	case isa.OpCbr:
		var taken uint32
		for m := fg.mask; m != 0; m &= m - 1 {
			if lane := bits.TrailingZeros32(m); w.regs[lane*w.nreg+fr.base+s0] != 0 {
				taken |= 1 << lane
			}
		}
		switch notTaken := fg.mask &^ taken; {
		case notTaken == 0:
			fg.pc = int(in.Tgt)
		case taken == 0:
			fg.pc++
		default: // divergence: split into two fragments
			fg.mask = notTaken
			fg.pc++
			w.frags = append(w.frags, fragment{pc: int(in.Tgt), mask: taken})
		}
		w.mergeFragments()
		return nil
	case isa.OpBar:
		// Synchronization is a timing concern; functionally it only
		// requires a converged warp.
		if len(w.frags) != 1 {
			return ErrDivergedBarrier
		}
		fg.pc++
		return nil
	case isa.OpCall: // one-lane warps only (NewWarp)
		callee := int(in.Tgt)
		newBase := fr.base + w.layout.callBase[fr.fn][fg.pc]
		cf := w.prog.Funcs[callee]
		if newBase+w.layout.frameSize[callee] > w.nreg {
			return fmt.Errorf("interp: register file overflow calling %s", cf.Name)
		}
		retDst := -1
		if in.Dst != isa.RegNone {
			retDst = fr.base + d
		}
		// ABI: arguments are copied into the callee frame's first registers.
		// Read every source before writing any: the callee frame starts at
		// the caller's compressed stack height, so with lazy compression a
		// source register can itself sit inside the argument window, and a
		// sequential copy would read an already-overwritten value.
		var argv [3]uint32
		for a := 0; a < cf.NumArgs; a++ {
			argv[a] = w.regs[fr.base+int(in.Src[a])]
		}
		copy(w.regs[newBase:], argv[:cf.NumArgs])
		fr.pc = fg.pc + 1
		w.stack = append(w.stack, frame{
			fn:      callee,
			base:    newBase,
			shBase:  fr.shBase + w.layout.sharedSlots[fr.fn],
			locBase: fr.locBase + w.layout.localSlots[fr.fn],
			retDst:  retDst,
		})
		w.code = cf.Instrs
		fg.pc = 0
		return nil
	case isa.OpRet:
		if in.Src[0] != isa.RegNone && fr.retDst >= 0 {
			w.regs[fr.retDst] = w.regs[fr.base+s0]
		}
		w.stack = w.stack[:len(w.stack)-1]
		top := &w.stack[len(w.stack)-1]
		w.code = w.prog.Funcs[top.fn].Instrs
		fg.pc = top.pc
		return nil
	case isa.OpExit:
		w.frags = append(w.frags[:fi], w.frags[fi+1:]...)
		return nil
	}

	imm := uint32(in.Imm)
	for m := fg.mask; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		r := w.regs[lane*w.nreg+fr.base:]
		switch in.Op {
		case isa.OpIAdd:
			r[d] = r[s0] + r[s1]
		case isa.OpISub:
			r[d] = r[s0] - r[s1]
		case isa.OpIMul:
			r[d] = r[s0] * r[s1]
		case isa.OpIMad:
			r[d] = r[s0]*r[s1] + r[s2]
		case isa.OpIMin:
			r[d] = uint32(min(int32(r[s0]), int32(r[s1])))
		case isa.OpIMax:
			r[d] = uint32(max(int32(r[s0]), int32(r[s1])))
		case isa.OpAnd:
			r[d] = r[s0] & r[s1]
		case isa.OpOr:
			r[d] = r[s0] | r[s1]
		case isa.OpXor:
			r[d] = r[s0] ^ r[s1]
		case isa.OpShl:
			r[d] = r[s0] << (r[s1] & 31)
		case isa.OpShr:
			r[d] = r[s0] >> (r[s1] & 31)
		case isa.OpISet:
			r[d] = boolWord(cmpInt(in.Cmp, int32(r[s0]), int32(r[s1])))
		case isa.OpFAdd:
			r[d] = math.Float32bits(f32(r[s0]) + f32(r[s1]))
		case isa.OpFSub:
			r[d] = math.Float32bits(f32(r[s0]) - f32(r[s1]))
		case isa.OpFMul:
			r[d] = math.Float32bits(f32(r[s0]) * f32(r[s1]))
		case isa.OpFFma:
			r[d] = math.Float32bits(f32(r[s0])*f32(r[s1]) + f32(r[s2]))
		case isa.OpFMin:
			a, b := f32(r[s0]), f32(r[s1])
			if b < a {
				a = b
			}
			r[d] = math.Float32bits(a)
		case isa.OpFMax:
			a, b := f32(r[s0]), f32(r[s1])
			if b > a {
				a = b
			}
			r[d] = math.Float32bits(a)
		case isa.OpFSet:
			r[d] = boolWord(cmpFloat(in.Cmp, f32(r[s0]), f32(r[s1])))
		case isa.OpF2I:
			fv := float64(f32(r[s0]))
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
			r[d] = uint32(iv)
		case isa.OpI2F:
			r[d] = math.Float32bits(float32(int32(r[s0])))
		case isa.OpMov:
			for k := 0; k < in.W(); k++ {
				r[d+k] = r[s0+k]
			}
		case isa.OpMovI:
			r[d] = imm
		case isa.OpRdSp:
			r[d] = w.special(in.Sp, lane)
		case isa.OpLdG:
			addr := r[s0] + imm
			for k := 0; k < in.W(); k++ {
				r[d+k] = GlobalData(addr + uint32(4*k))
			}
		case isa.OpStG:
			addr := r[s0] + imm
			words := r[s1:][:in.W()]
			for k, v := range words {
				w.logStore(addr+uint32(4*k), v)
			}
			if w.StoreSink != nil {
				w.StoreSink(addr, words)
			}
		case isa.OpLdS:
			addr := r[s0] + imm
			for k := 0; k < in.W(); k++ {
				r[d+k] = w.sharedWord(addr + uint32(4*k))
			}
		case isa.OpStS:
			addr := r[s0] + imm
			for k := 0; k < in.W(); k++ {
				w.setSharedWord(addr+uint32(4*k), r[s1+k])
			}
		case isa.OpSpillSS:
			copy(w.shSpill[lane*w.layout.SharedSpillSlots+fr.shBase+int(in.Imm):][:in.W()], r[s0:])
		case isa.OpSpillSL:
			copy(r[d:][:in.W()], w.shSpill[lane*w.layout.SharedSpillSlots+fr.shBase+int(in.Imm):])
		case isa.OpSpillLS:
			copy(w.locSpill[lane*w.layout.LocalSpillSlots+fr.locBase+int(in.Imm):][:in.W()], r[s0:])
		case isa.OpSpillLL:
			copy(r[d:][:in.W()], w.locSpill[lane*w.layout.LocalSpillSlots+fr.locBase+int(in.Imm):])
		default:
			return fmt.Errorf("interp: cannot execute %s", in.Op)
		}
	}
	fg.pc++
	w.mergeFragments()
	return nil
}

// mergeFragments coalesces fragments that reached the same pc
// (reconvergence).
func (w *Warp) mergeFragments() {
	if len(w.frags) > 1 {
		w.merge()
	}
}

func (w *Warp) merge() {
	out := w.frags[:0]
	for _, f := range w.frags {
		if i := slices.IndexFunc(out, func(o fragment) bool { return o.pc == f.pc }); i >= 0 {
			out[i].mask |= f.mask
		} else {
			out = append(out, f)
		}
	}
	w.frags = out
}

func (w *Warp) special(sp isa.Sp, lane int) uint32 {
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

func f32(u uint32) float32 { return math.Float32frombits(u) }

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

// Result summarizes a functional run.
type Result struct {
	Checksum  uint64 // XOR of per-warp store checksums (schedule-independent)
	Steps     int    // total dynamic instructions
	Stores    int
	WarpSteps []int // per-warp dynamic instruction counts
}

// Run executes every warp of the launch functionally. stepLimit bounds the
// dynamic instructions per warp (0 means a generous default). sink, when
// not nil, receives every warp's global stores as its StoreSink does,
// tagged with the warp's index in the launch. A negative grid is an error;
// an empty one runs nothing.
func Run(lc *Launch, stepLimit int, sink func(warp int, addr uint32, words []uint32)) (*Result, error) {
	if lc.GridWarps < 0 {
		return nil, fmt.Errorf("interp: negative grid of %d warps", lc.GridWarps)
	}
	if err := isa.Validate(lc.Prog); err != nil {
		return nil, err
	}
	layout, err := NewLayout(lc.Prog)
	if err != nil {
		return nil, err
	}
	if stepLimit <= 0 {
		stepLimit = 5_000_000
	}
	res := &Result{WarpSteps: make([]int, lc.GridWarps)}
	wpb := lc.WarpsPerBlock()
	sharedWords := (lc.Prog.SharedBytes + 3) / 4
	var shared []uint32
	for wi := 0; wi < lc.GridWarps; wi++ {
		if wi%wpb == 0 && sharedWords > 0 {
			shared = make([]uint32, sharedWords)
		}
		w, err := NewWarp(lc, layout, wi, shared)
		if err != nil {
			return nil, err
		}
		if sink != nil {
			w.StoreSink = func(addr uint32, words []uint32) { sink(wi, addr, words) }
		}
		for !w.Done() {
			if w.Steps >= stepLimit {
				return nil, fmt.Errorf("warp %d: %w", wi, ErrStepLimit)
			}
			if err := w.Advance(); err != nil {
				return nil, fmt.Errorf("warp %d: %w", wi, err)
			}
		}
		res.Checksum ^= MixWarpChecksum(w.WarpID, w.Checksum)
		res.Steps += w.Steps
		res.Stores += w.StoreCnt
		res.WarpSteps[wi] = w.Steps
	}
	return res, nil
}
