package isa

import "fmt"

// The opcode table holds, once per opcode, everything outside its
// semantics: the mnemonic, the operand form, the execution class and the
// memory space. Parse and FormatInstr walk the form's operands; the operand
// queries below and the executors' event classification (Class, Space)
// read the row. Adding an opcode is one row here plus its semantics in
// package interp.

// opClass is an opcode's execution class, numbered as interp.Kind numbers
// instruction events so the executors convert one to the other.
type opClass uint8

// Execution classes; 0 is no class (OpInvalid).
const (
	classALU     opClass = iota + 1 // integer arithmetic, moves, special-register reads
	classFPU                        // floating point and int/float conversion
	classLoad                       // register ← memory
	classStore                      // memory ← register
	classBranch                     // BRA, CBR
	classCall                       // CALL, RET
	classBarrier                    // BAR
	classExit                       // EXIT
)

// memSpace is the memory space an opcode addresses, numbered as
// interp.Space numbers them.
type memSpace uint8

// Memory spaces.
const (
	spaceNone   memSpace = iota
	spaceGlobal          // LDG, STG
	spaceShared          // user shared memory and shared spill slots
	spaceLocal           // local spill slots
)

// operand is one operand position of a form, in text order. Sources are
// numbered in the order they appear.
type operand uint8

const (
	oDst   operand = iota // register written, Dst
	oSrc                  // next source register, one word wide
	oWide                 // next source register, as wide as the instruction
	oAddr                 // [vN] or [vN+imm]: next source register and Imm
	oImm                  // immediate or spill slot, Imm
	oSp                   // special register, Sp
	oLabel                // branch target label, resolved into Tgt
	oFunc                 // callee name, resolved into Tgt
)

// opForm names an operand shape shared by several opcodes.
type opForm uint8

// Operand forms (d destination, s source, w wide source, a address).
const (
	formDSS        opForm = iota // d, s, s
	formSet                      // d, s, s — the mnemonic takes .CMP instead of a width
	formDSSS                     // d, s, s, s
	formMov                      // d, w
	formCvt                      // d, s
	formDImm                     // d, imm
	formDSp                      // d, SPECIAL
	formLoad                     // d, [a]
	formStore                    // [a], w
	formSpillStore               // slot, w
	formSpillLoad                // d, slot
	formBra                      // label
	formCbr                      // s, label
	formCall                     // d, func[, s, s, s]
	formRet                      // [w]
	formNone                     // no operands
)

// formInfo is one form's operand list and what the operand queries derive
// from it.
type formInfo struct {
	ops []operand
	// usage, when set, marks a form whose registers are optional (CALL's
	// destination and arguments, RET's value): each is present unless it
	// is RegNone, and text may leave out the trailing sources — usage is
	// the error for any other operand count.
	usage string

	// Derived by init from ops.
	dst    bool // writes Dst
	nsrc   int8 // source registers
	wide   int8 // index of the source as wide as the instruction, or -1
	minOps int  // operands text must give
}

var forms = [...]formInfo{
	formDSS:        {ops: []operand{oDst, oSrc, oSrc}},
	formSet:        {ops: []operand{oDst, oSrc, oSrc}},
	formDSSS:       {ops: []operand{oDst, oSrc, oSrc, oSrc}},
	formMov:        {ops: []operand{oDst, oWide}},
	formCvt:        {ops: []operand{oDst, oSrc}},
	formDImm:       {ops: []operand{oDst, oImm}},
	formDSp:        {ops: []operand{oDst, oSp}},
	formLoad:       {ops: []operand{oDst, oAddr}},
	formStore:      {ops: []operand{oAddr, oWide}},
	formSpillStore: {ops: []operand{oImm, oWide}},
	formSpillLoad:  {ops: []operand{oDst, oImm}},
	formBra:        {ops: []operand{oLabel}},
	formCbr:        {ops: []operand{oSrc, oLabel}},
	formCall:       {ops: []operand{oDst, oFunc, oSrc, oSrc, oSrc}, usage: "CALL expects dst, fname[, args...]"},
	formRet:        {ops: []operand{oWide}, usage: "RET expects at most one operand"},
	formNone:       {},
}

// opRow is one opcode's entry in opTable.
type opRow struct {
	name  string
	form  opForm
	class opClass
	space memSpace
}

// opTable is indexed by the opcode byte; rows past opMax are zero (no
// name, formDSS, no class), as every query expects of an invalid opcode.
var opTable = [256]opRow{
	OpInvalid: {"INVALID", formDSS, 0, spaceNone},

	OpIAdd: {"IADD", formDSS, classALU, spaceNone},
	OpISub: {"ISUB", formDSS, classALU, spaceNone},
	OpIMul: {"IMUL", formDSS, classALU, spaceNone},
	OpIMad: {"IMAD", formDSSS, classALU, spaceNone},
	OpIMin: {"IMIN", formDSS, classALU, spaceNone},
	OpIMax: {"IMAX", formDSS, classALU, spaceNone},
	OpAnd:  {"AND", formDSS, classALU, spaceNone},
	OpOr:   {"OR", formDSS, classALU, spaceNone},
	OpXor:  {"XOR", formDSS, classALU, spaceNone},
	OpShl:  {"SHL", formDSS, classALU, spaceNone},
	OpShr:  {"SHR", formDSS, classALU, spaceNone},
	OpISet: {"ISET", formSet, classALU, spaceNone},

	OpFAdd: {"FADD", formDSS, classFPU, spaceNone},
	OpFSub: {"FSUB", formDSS, classFPU, spaceNone},
	OpFMul: {"FMUL", formDSS, classFPU, spaceNone},
	OpFFma: {"FFMA", formDSSS, classFPU, spaceNone},
	OpFMin: {"FMIN", formDSS, classFPU, spaceNone},
	OpFMax: {"FMAX", formDSS, classFPU, spaceNone},
	OpFSet: {"FSET", formSet, classFPU, spaceNone},
	OpF2I:  {"F2I", formCvt, classFPU, spaceNone},
	OpI2F:  {"I2F", formCvt, classFPU, spaceNone},

	OpMov:  {"MOV", formMov, classALU, spaceNone},
	OpMovI: {"MOVI", formDImm, classALU, spaceNone},
	OpRdSp: {"RDSP", formDSp, classALU, spaceNone},

	OpLdG: {"LDG", formLoad, classLoad, spaceGlobal},
	OpStG: {"STG", formStore, classStore, spaceGlobal},
	OpLdS: {"LDS", formLoad, classLoad, spaceShared},
	OpStS: {"STS", formStore, classStore, spaceShared},

	OpSpillSS: {"SPST.S", formSpillStore, classStore, spaceShared},
	OpSpillSL: {"SPLD.S", formSpillLoad, classLoad, spaceShared},
	OpSpillLS: {"SPST.L", formSpillStore, classStore, spaceLocal},
	OpSpillLL: {"SPLD.L", formSpillLoad, classLoad, spaceLocal},

	OpBra:  {"BRA", formBra, classBranch, spaceNone},
	OpCbr:  {"CBR", formCbr, classBranch, spaceNone},
	OpCall: {"CALL", formCall, classCall, spaceNone},
	OpRet:  {"RET", formRet, classCall, spaceNone},
	OpBar:  {"BAR", formNone, classBarrier, spaceNone},
	OpExit: {"EXIT", formNone, classExit, spaceNone},
}

// mnemonics maps each valid opcode's name back to it; Parse's only map.
var mnemonics = make(map[string]Op, opMax)

func init() {
	for i := range forms {
		f := &forms[i]
		f.wide = -1
		for _, o := range f.ops {
			switch o {
			case oDst:
				f.dst = true
			case oWide:
				f.wide = f.nsrc
				fallthrough
			case oSrc, oAddr:
				f.nsrc++
			}
		}
		f.minOps = len(f.ops)
		if f.usage != "" { // the optional sources come last
			f.minOps -= int(f.nsrc)
		}
	}
	for op := OpInvalid + 1; op < opMax; op++ {
		mnemonics[opTable[op].name] = op
	}
}

// String returns the mnemonic for the opcode.
func (o Op) String() string {
	if name := opTable[o].name; name != "" {
		return name
	}
	return fmt.Sprintf("OP(%d)", int(o))
}

// Class returns the opcode's execution class, numbered as interp.Kind
// numbers instruction events; 0 for an invalid opcode.
func (o Op) Class() opClass { return opTable[o].class }

// Space returns the memory space the opcode addresses, numbered as
// interp.Space numbers them; 0 for none.
func (o Op) Space() memSpace { return opTable[o].space }

func (in *Instr) form() *formInfo { return &forms[opTable[in.Op].form] }

// HasDst reports whether the instruction writes a register.
func (in *Instr) HasDst() bool {
	f := in.form()
	return f.dst && (f.usage == "" || in.Dst != RegNone)
}

// NumSrcs returns how many source operands the instruction reads.
func (in *Instr) NumSrcs() int {
	f := in.form()
	n := int(f.nsrc)
	if f.usage != "" {
		for i := 0; i < n; i++ {
			if in.Src[i] == RegNone {
				return i
			}
		}
	}
	return n
}

// SrcWidth returns the register-slot width of source operand i. Sources are
// word-sized except for wide moves, wide stores (value operand), and wide
// returns, which mirror the instruction width.
func (in *Instr) SrcWidth(i int) int {
	if int(in.form().wide) == i {
		return in.W()
	}
	return 1
}

// IsBranch reports whether the instruction transfers control to Tgt.
func (in *Instr) IsBranch() bool { return opTable[in.Op].class == classBranch }

// IsMem reports whether the instruction accesses a memory space (excluding
// spill slots, which are memory too but are reported by IsSpill).
func (in *Instr) IsMem() bool {
	f := opTable[in.Op].form
	return f == formLoad || f == formStore
}

// IsSpill reports whether the instruction is compiler-inserted spill
// traffic.
func (in *Instr) IsSpill() bool {
	f := opTable[in.Op].form
	return f == formSpillLoad || f == formSpillStore
}

// Terminates reports whether control never falls through this instruction:
// an unconditional branch, a return or an exit.
func (in *Instr) Terminates() bool {
	r := &opTable[in.Op]
	return r.form == formBra || r.form == formRet || r.class == classExit
}
