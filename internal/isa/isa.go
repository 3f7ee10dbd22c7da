// Package isa defines the OASM virtual GPU instruction set that the Orion
// reproduction operates on. It plays the role that NVIDIA SASS plays in the
// paper: the compiler decodes binaries into this representation, transforms
// them, and encodes them back. The package provides the instruction model, a
// text assembler/disassembler, a binary encoder/decoder, and validation.
//
// OASM is deliberately SASS-like where it matters for occupancy tuning:
// flat virtual registers with wide (64/96/128-bit) classes that demand
// aligned consecutive physical registers, explicit global/shared/local
// memory spaces, dedicated spill-slot instructions, barriers, and
// non-inlined procedure calls with a frame-relative register convention
// (the substrate for the paper's compressible stack).
package isa

import (
	"fmt"
	"sync"
)

// Op enumerates OASM opcodes.
type Op uint8

// Opcode values. The zero value is invalid so that uninitialized
// instructions are caught by validation.
const (
	OpInvalid Op = iota

	// Integer ALU.
	OpIAdd // dst = src0 + src1
	OpISub // dst = src0 - src1
	OpIMul // dst = src0 * src1
	OpIMad // dst = src0 * src1 + src2
	OpIMin // dst = min(src0, src1) (signed)
	OpIMax // dst = max(src0, src1) (signed)
	OpAnd  // dst = src0 & src1
	OpOr   // dst = src0 | src1
	OpXor  // dst = src0 ^ src1
	OpShl  // dst = src0 << (src1 & 31)
	OpShr  // dst = src0 >> (src1 & 31) (logical)
	OpISet // dst = cmp(src0, src1) ? 1 : 0 (signed compare, Cmp field)

	// Float ALU (32-bit IEEE stored in the low word).
	OpFAdd // dst = src0 + src1
	OpFSub // dst = src0 - src1
	OpFMul // dst = src0 * src1
	OpFFma // dst = src0 * src1 + src2
	OpFMin // dst = min(src0, src1)
	OpFMax // dst = max(src0, src1)
	OpFSet // dst = cmp(src0, src1) ? 1 : 0 (float compare, Cmp field)
	OpF2I  // dst = int32(float(src0))
	OpI2F  // dst = float(int32(src0))

	// Moves.
	OpMov  // dst = src0 (width may be >1: moves a wide variable)
	OpMovI // dst = Imm

	// Special-register read.
	OpRdSp // dst = special register (Sp field)

	// Memory. Addresses are byte addresses in the low word of src0
	// (plus Imm). Width selects 32/64/96/128-bit transfers.
	OpLdG // dst = global[src0 + Imm]
	OpStG // global[src0 + Imm] = src1
	OpLdS // dst = shared[src0 + Imm] (user shared memory, block-local)
	OpStS // shared[src0 + Imm] = src1

	// Spill-slot accesses. The slot index is Imm; the compiler assigns
	// slots, and the hardware maps them to a per-thread partition of
	// shared memory (SpillS*) or to local memory backed by L1 (SpillL*).
	OpSpillSS // sharedspill[Imm] = src0
	OpSpillSL // dst = sharedspill[Imm]
	OpSpillLS // localspill[Imm] = src0
	OpSpillLL // dst = localspill[Imm]

	// Control flow.
	OpBra  // unconditional branch to TargetIdx
	OpCbr  // branch to TargetIdx if src0 != 0
	OpCall // call function FuncIdx: dst = f(src0, src1, src2)
	OpRet  // return src0 (RegNone for void)
	OpBar  // block-wide barrier
	OpExit // thread exit (kernel only)

	opMax // sentinel
)

// Cmp enumerates comparison operators for OpISet/OpFSet.
type Cmp uint8

// Comparison operators.
const (
	CmpNone Cmp = iota
	CmpLT
	CmpLE
	CmpEQ
	CmpNE
	CmpGE
	CmpGT
)

// Sp enumerates special registers readable with OpRdSp.
type Sp uint8

// Special registers. Values are per-warp: the interpreter executes at warp
// granularity (see package interp).
const (
	SpNone        Sp = iota
	SpWarpID         // global warp index within the grid
	SpBlockID        // block index within the grid
	SpWarpInBlk      // warp index within its block
	SpNumWarps       // total warps in the grid
	SpWarpsPerBlk    // warps per block
	SpSMID           // streaming multiprocessor the warp runs on
	SpLaneID         // lane within the warp (0..31); lane-variant (SIMT mode)
)

// Reg identifies a register operand. Before allocation registers are
// virtual (dense indices); after allocation they are frame-relative
// physical indices. RegNone marks an absent operand.
type Reg uint16

// RegNone is the absent-operand sentinel.
const RegNone Reg = 0xFFFF

// MaxRegs bounds physical register indices representable per thread.
const MaxRegs = 256

// Instr is a single OASM instruction. The same struct represents both
// virtual-register and allocated forms.
type Instr struct {
	Op    Op
	Width uint8 // register slots touched by Dst (1, 2, 3, or 4); 0 means 1
	Cmp   Cmp   // for OpISet / OpFSet
	Sp    Sp    // for OpRdSp
	Dst   Reg
	Src   [3]Reg
	Imm   int32  // immediate / byte offset / spill slot
	Tgt   int32  // branch target instruction index, or callee function index
	Label string // optional branch-target label (resolved into Tgt)
}

// W returns the effective width (treating 0 as 1).
func (in *Instr) W() int {
	if in.Width == 0 {
		return 1
	}
	return int(in.Width)
}

// Function is one procedure: the kernel entry or a callable device
// function. Instructions reference virtual registers densely numbered
// [0, NumVRegs) before allocation; after allocation NumVRegs is the frame
// size in physical register slots.
type Function struct {
	Name     string
	NumArgs  int  // arguments arrive in virtual registers 0..NumArgs-1
	HasRet   bool // whether the function produces a value
	NumVRegs int  // virtual register count (pre-alloc) or frame size (post-alloc)
	Instrs   []Instr

	// Allocated is set once register allocation has run; operands are then
	// frame-relative physical registers.
	Allocated bool
	// FrameSlots is the number of on-chip slots (registers) this function's
	// frame occupies after allocation.
	FrameSlots int
	// SpillShared and SpillLocal count per-thread spill slots used.
	SpillShared int
	SpillLocal  int
	// CallBounds[k] is the compressed caller stack height (the paper's Bk)
	// for the k-th static call instruction in this function, in instruction
	// order. Populated by inter-procedural allocation.
	CallBounds []int
}

// Clone deep-copies the function.
func (f *Function) Clone() *Function {
	nf := *f
	nf.Instrs = make([]Instr, len(f.Instrs))
	copy(nf.Instrs, f.Instrs)
	if f.CallBounds != nil {
		nf.CallBounds = append([]int(nil), f.CallBounds...)
	}
	return &nf
}

// Program is a compiled kernel: the entry function plus device functions.
type Program struct {
	Name        string
	SharedBytes int // user-declared shared memory per block
	BlockDim    int // threads per block at launch
	Funcs       []*Function

	derivedMu sync.Mutex
	derived   map[any]*derivedEntry
}

// derivedEntry is one (program, key) slot of Derived.
type derivedEntry struct {
	mu   sync.Mutex
	done bool
	val  any
	err  error
}

// Derived returns the value build computes from the program, built once
// per (program, key): concurrent first callers wait for the one build and
// every caller gets its value or its error (a build that panics stores
// nothing). The value lives on the program and is freed with it; Clone,
// Decode and Parse start with none. Pass finalized programs only: nothing
// invalidates a value. Keys are unexported struct types of the calling
// package. A value that points back at the program is collected with it
// all the same, but keeps a finalizer set on the program from running.
func (p *Program) Derived(key any, build func() (any, error)) (any, error) {
	p.derivedMu.Lock()
	e := p.derived[key]
	if e == nil {
		if p.derived == nil {
			p.derived = make(map[any]*derivedEntry)
		}
		e = &derivedEntry{}
		p.derived[key] = e
	}
	p.derivedMu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.done {
		e.val, e.err = build()
		e.done = true
	}
	return e.val, e.err
}

// Entry returns the kernel entry function (Funcs[0]).
func (p *Program) Entry() *Function { return p.Funcs[0] }

// FuncByName returns the function with the given name, or nil.
func (p *Program) FuncByName(name string) *Function {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// FuncIndex returns the index of the named function, or -1.
func (p *Program) FuncIndex(name string) int {
	for i, f := range p.Funcs {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// Clone deep-copies the program; derived values (see Derived) stay behind.
func (p *Program) Clone() *Program {
	np := &Program{
		Name:        p.Name,
		SharedBytes: p.SharedBytes,
		BlockDim:    p.BlockDim,
		Funcs:       make([]*Function, len(p.Funcs)),
	}
	for i, f := range p.Funcs {
		np.Funcs[i] = f.Clone()
	}
	return np
}

// StaticCalls returns the total number of static call instructions across
// all functions (paper Table 2, "Func" column).
func (p *Program) StaticCalls() int {
	n := 0
	for _, f := range p.Funcs {
		for i := range f.Instrs {
			if f.Instrs[i].Op == OpCall {
				n++
			}
		}
	}
	return n
}

// UsesLaneID reports whether the program reads the lane index — the
// marker for lane-variant (SIMT-mode) kernels.
func (p *Program) UsesLaneID() bool {
	f, _ := p.laneIDRead()
	return f != nil
}

// laneIDRead locates the first RDSP LANEID, or returns a nil function.
func (p *Program) laneIDRead() (*Function, int) {
	for _, f := range p.Funcs {
		for i := range f.Instrs {
			if f.Instrs[i].Op == OpRdSp && f.Instrs[i].Sp == SpLaneID {
				return f, i
			}
		}
	}
	return nil, 0
}

// UsesUserShared reports whether any function accesses user shared memory
// (paper Table 2, "Smem" column).
func (p *Program) UsesUserShared() bool {
	if p.SharedBytes > 0 {
		return true
	}
	for _, f := range p.Funcs {
		for i := range f.Instrs {
			if in := &f.Instrs[i]; in.IsMem() && in.Op.Space() == spaceShared {
				return true
			}
		}
	}
	return false
}

var cmpNames = [...]string{
	CmpNone: "", CmpLT: "LT", CmpLE: "LE", CmpEQ: "EQ",
	CmpNE: "NE", CmpGE: "GE", CmpGT: "GT",
}

// String returns the comparison mnemonic.
func (c Cmp) String() string {
	if int(c) < len(cmpNames) {
		return cmpNames[c]
	}
	return fmt.Sprintf("CMP(%d)", int(c))
}

var spNames = [...]string{
	SpNone: "", SpWarpID: "WARPID", SpBlockID: "BLOCKID",
	SpWarpInBlk: "WARPINBLK", SpNumWarps: "NUMWARPS",
	SpWarpsPerBlk: "WARPSPERBLK", SpSMID: "SMID", SpLaneID: "LANEID",
}

// String returns the special-register name.
func (s Sp) String() string {
	if int(s) < len(spNames) {
		return spNames[s]
	}
	return fmt.Sprintf("SP(%d)", int(s))
}

// AlignFor returns the physical register alignment required for a variable
// of the given slot width: 64-bit values need even registers, 96- and
// 128-bit values need 4-aligned registers (mirroring NVIDIA constraints
// referenced in the paper).
func AlignFor(width int) int {
	switch {
	case width >= 3:
		return 4
	case width == 2:
		return 2
	default:
		return 1
	}
}
