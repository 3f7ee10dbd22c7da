package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// The instruction parser as it stood before the opcode table: a switch per
// opcode for the mnemonic, the width suffix and the operands, and a
// split-and-rejoin operand splitter. FuzzParse holds the table-driven
// parseInstr to it line by line — the same Instr or the same error — so the
// rewrite changed no accepted input and no error text, apart from the two
// fixes it names.

func legacyParseInstr(text string, line int) (Instr, bool, error) {
	in := Instr{Src: [3]Reg{RegNone, RegNone, RegNone}}
	sp := strings.IndexAny(text, " \t")
	mnem := text
	rest := ""
	if sp >= 0 {
		mnem = text[:sp]
		rest = strings.TrimSpace(text[sp+1:])
	}

	base := mnem
	if dot := strings.Index(mnem, "."); dot >= 0 {
		// SPST.S / SPLD.S / SPST.L / SPLD.L carry the space in the mnemonic;
		// otherwise the suffix is a width.
		switch mnem {
		case "SPST.S", "SPLD.S", "SPST.L", "SPLD.L":
		default:
			base = mnem[:dot]
			if base == "ISET" || base == "FSET" {
				break // suffix is a comparison, handled below
			}
			switch mnem[dot+1:] {
			case "32":
				in.Width = 1
			case "64":
				in.Width = 2
			case "96":
				in.Width = 3
			case "128":
				in.Width = 4
			default:
				return in, false, &ParseError{line, fmt.Sprintf("bad width suffix in %q", mnem)}
			}
		}
	}

	op, ok := legacyOpByName(base, mnem)
	if !ok {
		return in, false, &ParseError{line, fmt.Sprintf("unknown opcode %q", mnem)}
	}
	in.Op = op

	args := legacySplitOperands(rest)
	reg := func(s string) (Reg, error) {
		s = strings.TrimSpace(s)
		if s == "_" {
			return RegNone, nil
		}
		if len(s) < 2 || (s[0] != 'v' && s[0] != 'r') {
			return 0, &ParseError{line, fmt.Sprintf("bad register %q", s)}
		}
		n, err := strconv.Atoi(s[1:])
		if err != nil || n < 0 || n >= int(RegNone) {
			return 0, &ParseError{line, fmt.Sprintf("bad register %q", s)}
		}
		return Reg(n), nil
	}
	imm := func(s string) (int32, error) {
		n, err := strconv.ParseInt(strings.TrimSpace(s), 0, 64)
		if err != nil || n < -(1<<31) || n >= 1<<32 {
			return 0, &ParseError{line, fmt.Sprintf("bad immediate %q", s)}
		}
		return int32(uint32(n)), nil // values in [2^31, 2^32) wrap to the same bits
	}
	// addr parses "[vN]" or "[vN+imm]" into src register and Imm.
	addr := func(s string) (Reg, int32, error) {
		s = strings.TrimSpace(s)
		if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
			return 0, 0, &ParseError{line, fmt.Sprintf("bad address %q", s)}
		}
		inner := s[1 : len(s)-1]
		off := int32(0)
		if plus := strings.IndexByte(inner, '+'); plus >= 0 {
			o, err := imm(inner[plus+1:])
			if err != nil {
				return 0, 0, err
			}
			off = o
			inner = inner[:plus]
		}
		r, err := reg(inner)
		if err != nil {
			return 0, 0, err
		}
		return r, off, nil
	}
	need := func(n int) error {
		if len(args) != n {
			return &ParseError{line, fmt.Sprintf("%s expects %d operands, got %d", mnem, n, len(args))}
		}
		return nil
	}

	var err error
	switch op {
	case OpIAdd, OpISub, OpIMul, OpIMin, OpIMax, OpAnd, OpOr, OpXor,
		OpShl, OpShr, OpFAdd, OpFSub, OpFMul, OpFMin, OpFMax:
		if err = need(3); err != nil {
			return in, false, err
		}
		if in.Dst, err = reg(args[0]); err == nil {
			if in.Src[0], err = reg(args[1]); err == nil {
				in.Src[1], err = reg(args[2])
			}
		}
	case OpIMad, OpFFma:
		if err = need(4); err != nil {
			return in, false, err
		}
		if in.Dst, err = reg(args[0]); err == nil {
			if in.Src[0], err = reg(args[1]); err == nil {
				if in.Src[1], err = reg(args[2]); err == nil {
					in.Src[2], err = reg(args[3])
				}
			}
		}
	case OpISet, OpFSet:
		// ISET.LT v1, v2, v3
		if err = need(3); err != nil {
			return in, false, err
		}
		var c Cmp
		if dot := strings.LastIndex(mnem, "."); dot >= 0 {
			c = legacyCmpByName(mnem[dot+1:])
		}
		if c == CmpNone {
			return in, false, &ParseError{line, fmt.Sprintf("%s requires a .CMP suffix (LT/LE/EQ/NE/GE/GT)", base)}
		}
		in.Cmp = c
		in.Width = 0
		if in.Dst, err = reg(args[0]); err == nil {
			if in.Src[0], err = reg(args[1]); err == nil {
				in.Src[1], err = reg(args[2])
			}
		}
	case OpMov, OpF2I, OpI2F:
		if err = need(2); err != nil {
			return in, false, err
		}
		if in.Dst, err = reg(args[0]); err == nil {
			in.Src[0], err = reg(args[1])
		}
	case OpMovI:
		if err = need(2); err != nil {
			return in, false, err
		}
		if in.Dst, err = reg(args[0]); err == nil {
			in.Imm, err = imm(args[1])
		}
	case OpRdSp:
		if err = need(2); err != nil {
			return in, false, err
		}
		if in.Dst, err = reg(args[0]); err == nil {
			in.Sp = legacySpByName(strings.TrimSpace(args[1]))
			if in.Sp == SpNone {
				err = &ParseError{line, fmt.Sprintf("unknown special register %q", args[1])}
			}
		}
	case OpLdG, OpLdS:
		if err = need(2); err != nil {
			return in, false, err
		}
		if in.Dst, err = reg(args[0]); err == nil {
			in.Src[0], in.Imm, err = addr(args[1])
		}
	case OpStG, OpStS:
		if err = need(2); err != nil {
			return in, false, err
		}
		if in.Src[0], in.Imm, err = addr(args[0]); err == nil {
			in.Src[1], err = reg(args[1])
		}
	case OpSpillSS, OpSpillLS:
		// SPST.S slot, vN
		if err = need(2); err != nil {
			return in, false, err
		}
		if in.Imm, err = imm(args[0]); err == nil {
			in.Src[0], err = reg(args[1])
		}
	case OpSpillSL, OpSpillLL:
		// SPLD.S vN, slot
		if err = need(2); err != nil {
			return in, false, err
		}
		if in.Dst, err = reg(args[0]); err == nil {
			in.Imm, err = imm(args[1])
		}
	case OpBra:
		if err = need(1); err != nil {
			return in, false, err
		}
		in.Label = strings.TrimSpace(args[0])
	case OpCbr:
		if err = need(2); err != nil {
			return in, false, err
		}
		if in.Src[0], err = reg(args[0]); err == nil {
			in.Label = strings.TrimSpace(args[1])
		}
	case OpCall:
		if len(args) < 2 || len(args) > 5 {
			return in, false, &ParseError{line, "CALL expects dst, fname[, args...]"}
		}
		if in.Dst, err = reg(args[0]); err != nil {
			return in, false, err
		}
		in.Label = strings.TrimSpace(args[1])
		in.Src = [3]Reg{RegNone, RegNone, RegNone}
		for i := 2; i < len(args); i++ {
			if in.Src[i-2], err = reg(args[i]); err != nil {
				return in, false, err
			}
		}
		return in, true, nil
	case OpRet:
		in.Src = [3]Reg{RegNone, RegNone, RegNone}
		if len(args) == 1 {
			in.Src[0], err = reg(args[0])
		} else if len(args) != 0 {
			err = &ParseError{line, "RET expects at most one operand"}
		}
	case OpBar, OpExit:
		err = need(0)
	default:
		err = &ParseError{line, fmt.Sprintf("unhandled opcode %q", mnem)}
	}
	if err != nil {
		return in, false, err
	}
	if in.Width == 1 {
		in.Width = 0 // canonical word width
	}
	return in, false, nil
}

func legacyOpByName(base, full string) (Op, bool) {
	switch full {
	case "SPST.S":
		return OpSpillSS, true
	case "SPLD.S":
		return OpSpillSL, true
	case "SPST.L":
		return OpSpillLS, true
	case "SPLD.L":
		return OpSpillLL, true
	}
	switch base {
	case "IADD":
		return OpIAdd, true
	case "ISUB":
		return OpISub, true
	case "IMUL":
		return OpIMul, true
	case "IMAD":
		return OpIMad, true
	case "IMIN":
		return OpIMin, true
	case "IMAX":
		return OpIMax, true
	case "AND":
		return OpAnd, true
	case "OR":
		return OpOr, true
	case "XOR":
		return OpXor, true
	case "SHL":
		return OpShl, true
	case "SHR":
		return OpShr, true
	case "ISET":
		return OpISet, true
	case "FADD":
		return OpFAdd, true
	case "FSUB":
		return OpFSub, true
	case "FMUL":
		return OpFMul, true
	case "FFMA":
		return OpFFma, true
	case "FMIN":
		return OpFMin, true
	case "FMAX":
		return OpFMax, true
	case "FSET":
		return OpFSet, true
	case "F2I":
		return OpF2I, true
	case "I2F":
		return OpI2F, true
	case "MOV":
		return OpMov, true
	case "MOVI":
		return OpMovI, true
	case "RDSP":
		return OpRdSp, true
	case "LDG":
		return OpLdG, true
	case "STG":
		return OpStG, true
	case "LDS":
		return OpLdS, true
	case "STS":
		return OpStS, true
	case "BRA":
		return OpBra, true
	case "CBR":
		return OpCbr, true
	case "CALL":
		return OpCall, true
	case "RET":
		return OpRet, true
	case "BAR":
		return OpBar, true
	case "EXIT":
		return OpExit, true
	}
	return OpInvalid, false
}

func legacyCmpByName(s string) Cmp {
	switch s {
	case "LT":
		return CmpLT
	case "LE":
		return CmpLE
	case "EQ":
		return CmpEQ
	case "NE":
		return CmpNE
	case "GE":
		return CmpGE
	case "GT":
		return CmpGT
	}
	return CmpNone
}

func legacySpByName(s string) Sp {
	switch s {
	case "WARPID":
		return SpWarpID
	case "BLOCKID":
		return SpBlockID
	case "WARPINBLK":
		return SpWarpInBlk
	case "NUMWARPS":
		return SpNumWarps
	case "WARPSPERBLK":
		return SpWarpsPerBlk
	case "SMID":
		return SpSMID
	case "LANEID":
		return SpLaneID
	}
	return SpNone
}

func legacySplitOperands(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	// Re-join pieces split inside brackets: "[v1+4]" has no comma, but be safe.
	out := make([]string, 0, len(parts))
	depth := 0
	curStart := -1
	for i, p := range parts {
		if curStart < 0 {
			curStart = i
		}
		depth += strings.Count(p, "[") - strings.Count(p, "]")
		if depth == 0 {
			out = append(out, strings.TrimSpace(strings.Join(parts[curStart:i+1], ",")))
			curStart = -1
		}
	}
	if curStart >= 0 {
		out = append(out, strings.TrimSpace(strings.Join(parts[curStart:], ",")))
	}
	return out
}
