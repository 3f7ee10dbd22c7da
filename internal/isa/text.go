package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseError reports a syntax or semantic error in OASM text with its line.
type ParseError struct {
	Line int
	Msg  string
}

// Error formats the parse error with its line number.
func (e *ParseError) Error() string {
	return fmt.Sprintf("oasm: line %d: %s", e.Line, e.Msg)
}

// Parse assembles OASM text into a Program. The format is line-oriented:
//
//	.kernel NAME            program header (required, first)
//	.shared BYTES           user shared memory per block
//	.blockdim THREADS       threads per block
//	.func NAME [args N] [ret]
//	LABEL:
//	  OP[.W] operands       e.g. IADD v1, v2, v3 / LDG.64 v4, [v2+16]
//	  ; comment or # comment
//
// Registers are v0..vN (virtual). Branch targets are labels. Calls name
// their callee: CALL v1, fname, v2, v3. Void calls: CALL _, fname, v2.
func Parse(src string) (*Program, error) {
	p := &Program{BlockDim: 256}
	var cur *Function
	type fixup struct {
		fn    *Function
		instr int
		line  int
	}
	var callFixups []fixup
	labels := map[string]int{}
	var pending []string // labels awaiting the next instruction

	finishFunc := func(line int) error {
		if cur == nil {
			return nil
		}
		if len(pending) > 0 {
			return &ParseError{line, "label at end of function with no instruction"}
		}
		for i := range cur.Instrs {
			in := &cur.Instrs[i]
			if in.IsBranch() {
				tgt, ok := labels[in.Label]
				if !ok {
					return &ParseError{line, fmt.Sprintf("undefined label %q", in.Label)}
				}
				in.Tgt = int32(tgt)
			}
		}
		labels = map[string]int{}
		return nil
	}

	for lineNo, raw := range strings.Split(src, "\n") {
		line := lineNo + 1
		text := raw
		if i := strings.IndexAny(text, ";#"); i >= 0 {
			text = text[:i]
		}
		text = strings.TrimSpace(text)
		if text == "" {
			continue
		}

		if strings.HasPrefix(text, ".") {
			fields := strings.Fields(text)
			switch fields[0] {
			case ".kernel":
				if len(fields) != 2 {
					return nil, &ParseError{line, ".kernel requires a name"}
				}
				p.Name = fields[1]
			case ".shared":
				if len(fields) != 2 {
					return nil, &ParseError{line, ".shared requires a size"}
				}
				n, err := strconv.Atoi(fields[1])
				if err != nil || n < 0 {
					return nil, &ParseError{line, "bad .shared size"}
				}
				p.SharedBytes = n
			case ".blockdim":
				if len(fields) != 2 {
					return nil, &ParseError{line, ".blockdim requires a thread count"}
				}
				n, err := strconv.Atoi(fields[1])
				if err != nil || n <= 0 {
					return nil, &ParseError{line, "bad .blockdim"}
				}
				p.BlockDim = n
			case ".func":
				if err := finishFunc(line); err != nil {
					return nil, err
				}
				if len(fields) < 2 {
					return nil, &ParseError{line, ".func requires a name"}
				}
				cur = &Function{Name: fields[1]}
				for i := 2; i < len(fields); i++ {
					switch fields[i] {
					case "args":
						if i+1 >= len(fields) {
							return nil, &ParseError{line, "args requires a count"}
						}
						n, err := strconv.Atoi(fields[i+1])
						if err != nil || n < 0 || n > 3 {
							return nil, &ParseError{line, "bad args count (0..3)"}
						}
						cur.NumArgs = n
						i++
					case "ret":
						cur.HasRet = true
					default:
						return nil, &ParseError{line, fmt.Sprintf("unknown .func attribute %q", fields[i])}
					}
				}
				p.Funcs = append(p.Funcs, cur)
			default:
				return nil, &ParseError{line, fmt.Sprintf("unknown directive %q", fields[0])}
			}
			continue
		}

		if cur == nil {
			return nil, &ParseError{line, "instruction outside .func"}
		}

		if strings.HasSuffix(text, ":") && !strings.ContainsAny(text, " \t,") {
			name := strings.TrimSuffix(text, ":")
			if name == "" {
				return nil, &ParseError{line, "empty label"}
			}
			if _, dup := labels[name]; dup {
				return nil, &ParseError{line, fmt.Sprintf("duplicate label %q", name)}
			}
			pending = append(pending, name)
			continue
		}

		in, err := parseInstr(text, line)
		if err != nil {
			return nil, err
		}
		for _, l := range pending {
			labels[l] = len(cur.Instrs)
		}
		pending = pending[:0]
		if in.Op == OpCall {
			callFixups = append(callFixups, fixup{cur, len(cur.Instrs), line})
		}
		cur.Instrs = append(cur.Instrs, in)
	}
	if err := finishFunc(len(strings.Split(src, "\n"))); err != nil {
		return nil, err
	}
	if p.Name == "" {
		return nil, &ParseError{1, "missing .kernel directive"}
	}
	if len(p.Funcs) == 0 {
		return nil, &ParseError{1, "no functions defined"}
	}

	for _, fx := range callFixups {
		in := &fx.fn.Instrs[fx.instr]
		idx := p.FuncIndex(in.Label)
		if idx < 0 {
			return nil, &ParseError{fx.line, fmt.Sprintf("call to undefined function %q", in.Label)}
		}
		in.Tgt = int32(idx)
	}

	for _, f := range p.Funcs {
		f.NumVRegs = countVRegs(f)
		f.SpillShared, f.SpillLocal = countSpillSlots(f)
	}
	return p, nil
}

// MustParse is Parse that panics on error; for tests and static kernels.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// countVRegs sizes the virtual frame: the arguments and every register
// operand fit in it.
func countVRegs(f *Function) int {
	n := f.NumArgs
	fit := func(r Reg, w int) {
		if r != RegNone {
			n = max(n, int(r)+w)
		}
	}
	for i := range f.Instrs {
		in := &f.Instrs[i]
		if in.HasDst() {
			fit(in.Dst, in.W())
		}
		for s := 0; s < in.NumSrcs(); s++ {
			fit(in.Src[s], in.SrcWidth(s))
		}
	}
	return n
}

// countSpillSlots derives the per-thread spill footprint from explicit
// spill instructions in the source, so hand-written spill code validates
// and later allocation rounds number fresh slots after the existing ones.
func countSpillSlots(f *Function) (shared, local int) {
	for i := range f.Instrs {
		switch in := &f.Instrs[i]; {
		case !in.IsSpill():
		case in.Op.Space() == spaceShared:
			shared = max(shared, int(in.Imm)+in.W())
		default:
			local = max(local, int(in.Imm)+in.W())
		}
	}
	return shared, local
}

// parseInstr assembles one instruction line: the mnemonic names the
// opcode's row in opTable, and the row's form says which operands follow.
func parseInstr(text string, line int) (Instr, error) {
	in := Instr{Src: [3]Reg{RegNone, RegNone, RegNone}}
	mnem, rest := text, ""
	if sp := strings.IndexAny(text, " \t"); sp >= 0 {
		mnem, rest = text[:sp], strings.TrimSpace(text[sp+1:])
	}

	// A mnemonic is NAME[.SUFFIX]: NAME is the opcode's word, with its
	// space on the spill ops (SPST.S), and SUFFIX is a width (32, 64, 96,
	// 128) or, on ISET and FSET, the comparison.
	name, suffix, dotted := strings.Cut(mnem, ".")
	op, known := mnemonics[name]
	if !known && dotted {
		space, width, wide := strings.Cut(suffix, ".")
		spill := mnem[:len(name)+1+len(space)]
		if op, known = mnemonics[spill]; known {
			name, suffix, dotted = spill, width, wide
		}
	}
	form := opTable[op].form
	if dotted && !(known && form == formSet) {
		if in.Width = uint8(indexName(widthNames[:], suffix)); in.Width == 0 {
			return in, &ParseError{line, fmt.Sprintf("bad width suffix in %q", mnem)}
		}
	}
	if !known {
		return in, &ParseError{line, fmt.Sprintf("unknown opcode %q", mnem)}
	}
	in.Op = op

	f := &forms[form]
	args := splitOperands(rest)
	if len(args) < f.minOps || len(args) > len(f.ops) {
		if f.usage != "" {
			return in, &ParseError{line, f.usage}
		}
		return in, &ParseError{line, fmt.Sprintf("%s expects %d operands, got %d", mnem, len(f.ops), len(args))}
	}
	if form == formSet {
		if in.Cmp = Cmp(indexName(cmpNames[:], mnem[strings.LastIndexByte(mnem, '.')+1:])); in.Cmp == CmpNone {
			return in, &ParseError{line, fmt.Sprintf("%s requires a .CMP suffix (LT/LE/EQ/NE/GE/GT)", name)}
		}
	}
	src := 0
	for i, arg := range args {
		var err error
		switch f.ops[i] {
		case oDst:
			in.Dst, err = parseReg(arg, line)
		case oSrc, oWide:
			in.Src[src], err = parseReg(arg, line)
			src++
		case oAddr:
			in.Src[src], in.Imm, err = parseAddr(arg, line)
			src++
		case oImm:
			in.Imm, err = parseImm(arg, line)
		case oSp:
			if in.Sp = Sp(indexName(spNames[:], arg)); in.Sp == SpNone {
				err = &ParseError{line, fmt.Sprintf("unknown special register %q", arg)}
			}
		case oLabel, oFunc:
			in.Label = arg
		}
		if err != nil {
			return in, err
		}
	}
	if in.Width == 1 {
		in.Width = 0 // canonical word width
	}
	return in, nil
}

// widthNames are the width suffixes of widths 1-4.
var widthNames = [...]string{"", "32", "64", "96", "128"}

// indexName returns the index of s in names, or 0 (whose name is empty).
func indexName(names []string, s string) int {
	for i := 1; i < len(names); i++ {
		if names[i] == s {
			return i
		}
	}
	return 0
}

func parseReg(s string, line int) (Reg, error) {
	s = strings.TrimSpace(s)
	if s == "_" {
		return RegNone, nil
	}
	if len(s) >= 2 && (s[0] == 'v' || s[0] == 'r') {
		if n, err := strconv.Atoi(s[1:]); err == nil && n >= 0 && n < int(RegNone) {
			return Reg(n), nil
		}
	}
	return 0, &ParseError{line, fmt.Sprintf("bad register %q", s)}
}

func parseImm(s string, line int) (int32, error) {
	n, err := strconv.ParseInt(strings.TrimSpace(s), 0, 64)
	if err != nil || n < -(1<<31) || n >= 1<<32 {
		return 0, &ParseError{line, fmt.Sprintf("bad immediate %q", s)}
	}
	return int32(uint32(n)), nil // values in [2^31, 2^32) wrap to the same bits
}

// parseAddr parses "[vN]" or "[vN+imm]" into a register and an offset.
func parseAddr(s string, line int) (Reg, int32, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return 0, 0, &ParseError{line, fmt.Sprintf("bad address %q", s)}
	}
	base, offset, hasOffset := strings.Cut(s[1:len(s)-1], "+")
	var off int32
	if hasOffset {
		var err error
		if off, err = parseImm(offset, line); err != nil {
			return 0, 0, err
		}
	}
	r, err := parseReg(base, line)
	return r, off, err
}

// splitOperands splits an operand list at the commas outside brackets.
func splitOperands(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	out := make([]string, 0, 4)
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '[':
			depth++
		case ']':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	return append(out, strings.TrimSpace(s[start:]))
}

// Format disassembles a Program back to OASM text. Branch targets are
// rendered as generated labels (L<idx>), so Parse(Format(p)) yields an
// equivalent program.
func Format(p *Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, ".kernel %s\n", p.Name)
	if p.SharedBytes > 0 {
		fmt.Fprintf(&b, ".shared %d\n", p.SharedBytes)
	}
	fmt.Fprintf(&b, ".blockdim %d\n", p.BlockDim)
	for _, f := range p.Funcs {
		fmt.Fprintf(&b, ".func %s", f.Name)
		if f.NumArgs > 0 {
			fmt.Fprintf(&b, " args %d", f.NumArgs)
		}
		if f.HasRet {
			b.WriteString(" ret")
		}
		b.WriteByte('\n')
		targets := map[int]bool{}
		for i := range f.Instrs {
			if f.Instrs[i].IsBranch() {
				targets[int(f.Instrs[i].Tgt)] = true
			}
		}
		for i := range f.Instrs {
			if targets[i] {
				fmt.Fprintf(&b, "L%d:\n", i)
			}
			b.WriteString("  ")
			b.WriteString(FormatInstr(p, &f.Instrs[i]))
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// FormatInstr renders a single instruction as OASM text.
func FormatInstr(p *Program, in *Instr) string {
	var b strings.Builder
	b.WriteString(in.Op.String())
	form := opTable[in.Op].form
	if form == formSet {
		b.WriteString("." + in.Cmp.String())
	} else if in.Width > 1 {
		b.WriteString("." + strconv.Itoa(in.W()*32))
	}
	reg := func(x Reg) {
		if x == RegNone {
			b.WriteByte('_')
			return
		}
		b.WriteByte('v')
		b.WriteString(strconv.Itoa(int(x)))
	}
	f := &forms[form]
	n := len(f.ops)
	for n > f.minOps && in.Src[n-1-f.minOps] == RegNone {
		n-- // optional sources: up to the last present one
	}
	src, sep := 0, " "
	for _, o := range f.ops[:n] {
		b.WriteString(sep)
		sep = ", "
		switch o {
		case oDst:
			reg(in.Dst)
		case oSrc, oWide:
			reg(in.Src[src])
			src++
		case oAddr:
			b.WriteByte('[')
			reg(in.Src[src])
			if in.Imm != 0 {
				b.WriteString("+" + strconv.Itoa(int(in.Imm)))
			}
			b.WriteByte(']')
			src++
		case oImm:
			b.WriteString(strconv.Itoa(int(in.Imm)))
		case oSp:
			b.WriteString(in.Sp.String())
		case oLabel:
			b.WriteString("L" + strconv.Itoa(int(in.Tgt)))
		case oFunc:
			callee := "?"
			if p != nil && in.Tgt >= 0 && int(in.Tgt) < len(p.Funcs) {
				callee = p.Funcs[in.Tgt].Name
			} else if in.Label != "" {
				callee = in.Label
			}
			b.WriteString(callee)
		}
	}
	return b.String()
}
