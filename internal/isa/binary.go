package isa

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Binary container format ("ORN1"). The Orion compiler, like the paper's,
// consumes and produces binaries: front end decodes, back end re-encodes.
//
// Layout (little endian):
//
//	magic   [4]byte "ORN1"
//	name    string (u16 length + bytes)
//	shared  u32
//	blockdim u32
//	nfuncs  u16
//	per function:
//	  name      string
//	  flags     u8   (bit0: HasRet, bit1: Allocated)
//	  numArgs   u8
//	  numVRegs  u16
//	  frame     u16
//	  spillS    u16
//	  spillL    u16
//	  ninstr    u32
//	  instrs    ninstr * 20 bytes
//	  nbounds   u16 + bounds u16 each
//
// Instruction word (20 bytes): op u8, width u8, cmp u8, sp u8, dst u16,
// src0 u16, src1 u16, src2 u16, imm i32, tgt i32. Tgt — a branch's target
// instruction, a call's callee — has its own field because a CALL can use
// all three sources besides.
const binMagic = "ORN1"

var errBadMagic = errors.New("isa: bad binary magic")

const instrBytes = 20

// Encode serializes the program to the ORN1 binary format.
func Encode(p *Program) []byte {
	var b bytes.Buffer
	b.WriteString(binMagic)
	writeString(&b, p.Name)
	writeU32(&b, uint32(p.SharedBytes))
	writeU32(&b, uint32(p.BlockDim))
	writeU16(&b, uint16(len(p.Funcs)))
	for _, f := range p.Funcs {
		writeString(&b, f.Name)
		var flags uint8
		if f.HasRet {
			flags |= 1
		}
		if f.Allocated {
			flags |= 2
		}
		b.WriteByte(flags)
		b.WriteByte(uint8(f.NumArgs))
		writeU16(&b, uint16(f.NumVRegs))
		writeU16(&b, uint16(f.FrameSlots))
		writeU16(&b, uint16(f.SpillShared))
		writeU16(&b, uint16(f.SpillLocal))
		writeU32(&b, uint32(len(f.Instrs)))
		for i := range f.Instrs {
			in := &f.Instrs[i]
			b.WriteByte(uint8(in.Op))
			b.WriteByte(in.Width)
			b.WriteByte(uint8(in.Cmp))
			b.WriteByte(uint8(in.Sp))
			writeU16(&b, uint16(in.Dst))
			writeU16(&b, uint16(in.Src[0]))
			writeU16(&b, uint16(in.Src[1]))
			writeU16(&b, uint16(in.Src[2]))
			writeU32(&b, uint32(in.Imm))
			writeU32(&b, uint32(in.Tgt))
		}
		writeU16(&b, uint16(len(f.CallBounds)))
		for _, cb := range f.CallBounds {
			writeU16(&b, uint16(cb))
		}
	}
	return b.Bytes()
}

// Load reads a kernel arriving from outside the program — a file, an
// upload — in either encoding: an ORN1 binary, recognized by its magic, or
// OASM text. The program it returns has passed Validate.
func Load(data []byte) (*Program, error) {
	var p *Program
	var err error
	if bytes.HasPrefix(data, []byte(binMagic)) {
		p, err = Decode(data)
	} else {
		p, err = Parse(string(data))
	}
	if err != nil {
		return nil, err
	}
	if err := Validate(p); err != nil {
		return nil, err
	}
	return p, nil
}

// Decode parses an ORN1 binary produced by Encode.
func Decode(data []byte) (*Program, error) {
	r := &reader{data: data}
	magic := r.bytes(4)
	if r.err != nil || string(magic) != binMagic {
		return nil, errBadMagic
	}
	p := &Program{}
	p.Name = r.string()
	p.SharedBytes = r.size("shared size", math.MaxInt32)
	p.BlockDim = r.size("block dim", math.MaxInt32)
	nf := int(r.u16())
	if r.err != nil {
		return nil, r.err
	}
	if nf == 0 || nf > 1<<12 {
		return nil, fmt.Errorf("isa: implausible function count %d", nf)
	}
	p.Funcs = make([]*Function, 0, nf)
	for fi := 0; fi < nf; fi++ {
		f := &Function{}
		f.Name = r.string()
		flags := r.u8()
		f.HasRet = flags&1 != 0
		f.Allocated = flags&2 != 0
		f.NumArgs = int(r.u8())
		f.NumVRegs = int(r.u16())
		f.FrameSlots = int(r.u16())
		f.SpillShared = int(r.u16())
		f.SpillLocal = int(r.u16())
		ni := r.size("instruction count", len(r.data)/instrBytes+1)
		if r.err != nil {
			return nil, r.err
		}
		f.Instrs = make([]Instr, ni)
		for i := 0; i < ni; i++ {
			in := &f.Instrs[i]
			in.Op = Op(r.u8())
			in.Width = r.u8()
			in.Cmp = Cmp(r.u8())
			in.Sp = Sp(r.u8())
			in.Dst = Reg(r.u16())
			in.Src[0] = Reg(r.u16())
			in.Src[1] = Reg(r.u16())
			in.Src[2] = Reg(r.u16())
			in.Imm = int32(r.u32())
			in.Tgt = int32(r.u32())
		}
		nb := int(r.u16())
		if nb > 0 {
			f.CallBounds = make([]int, nb)
			for i := range f.CallBounds {
				f.CallBounds[i] = int(r.u16())
			}
		}
		if r.err != nil {
			return nil, r.err
		}
		p.Funcs = append(p.Funcs, f)
	}
	// Restore call labels now that all function names are known.
	for _, f := range p.Funcs {
		for i := range f.Instrs {
			in := &f.Instrs[i]
			if in.Op == OpCall {
				if int(in.Tgt) >= len(p.Funcs) || in.Tgt < 0 {
					return nil, fmt.Errorf("isa: call target %d out of range", in.Tgt)
				}
				in.Label = p.Funcs[in.Tgt].Name
			}
		}
	}
	return p, nil
}

type reader struct {
	data []byte
	off  int
	err  error
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.data) {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u8() uint8 {
	b := r.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u16() uint16 {
	b := r.bytes(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *reader) u32() uint32 {
	b := r.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// size reads a uint32 that Decode keeps as an int, failing as implausible
// above limit. The check is made before the conversion: on a 32-bit
// platform a value of 2³¹ or more would turn negative and pass it.
func (r *reader) size(what string, limit int) int {
	v := r.u32()
	if r.err == nil && uint64(v) > uint64(limit) {
		r.err = fmt.Errorf("isa: implausible %s %d", what, v)
	}
	if r.err != nil {
		return 0
	}
	return int(v)
}

func (r *reader) string() string {
	n := int(r.u16())
	b := r.bytes(n)
	if b == nil {
		return ""
	}
	return string(b)
}

func writeU16(b *bytes.Buffer, v uint16) {
	var tmp [2]byte
	binary.LittleEndian.PutUint16(tmp[:], v)
	b.Write(tmp[:])
}

func writeU32(b *bytes.Buffer, v uint32) {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	b.Write(tmp[:])
}

func writeString(b *bytes.Buffer, s string) {
	writeU16(b, uint16(len(s)))
	b.WriteString(s)
}
