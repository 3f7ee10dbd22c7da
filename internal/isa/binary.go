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
	// Sized exactly: Fingerprint encodes on every cache lookup.
	n := len(binMagic) + 2 + len(p.Name) + 10
	for _, f := range p.Funcs {
		n += 2 + len(f.Name) + 14 + instrBytes*len(f.Instrs) + 2 + 2*len(f.CallBounds)
	}
	le := binary.LittleEndian
	b := append(make([]byte, 0, n), binMagic...)
	b = appendString(b, p.Name)
	b = le.AppendUint32(b, uint32(p.SharedBytes))
	b = le.AppendUint32(b, uint32(p.BlockDim))
	b = le.AppendUint16(b, uint16(len(p.Funcs)))
	for _, f := range p.Funcs {
		b = appendString(b, f.Name)
		var flags uint8
		if f.HasRet {
			flags |= 1
		}
		if f.Allocated {
			flags |= 2
		}
		b = append(b, flags, uint8(f.NumArgs))
		b = le.AppendUint16(b, uint16(f.NumVRegs))
		b = le.AppendUint16(b, uint16(f.FrameSlots))
		b = le.AppendUint16(b, uint16(f.SpillShared))
		b = le.AppendUint16(b, uint16(f.SpillLocal))
		b = le.AppendUint32(b, uint32(len(f.Instrs)))
		for i := range f.Instrs {
			in := &f.Instrs[i]
			b = append(b, uint8(in.Op), in.Width, uint8(in.Cmp), uint8(in.Sp))
			b = le.AppendUint16(b, uint16(in.Dst))
			b = le.AppendUint16(b, uint16(in.Src[0]))
			b = le.AppendUint16(b, uint16(in.Src[1]))
			b = le.AppendUint16(b, uint16(in.Src[2]))
			b = le.AppendUint32(b, uint32(in.Imm))
			b = le.AppendUint32(b, uint32(in.Tgt))
		}
		b = le.AppendUint16(b, uint16(len(f.CallBounds)))
		for _, cb := range f.CallBounds {
			b = le.AppendUint16(b, uint16(cb))
		}
	}
	return b
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
	r := NewReader(data)
	magic := r.Bytes(4)
	if r.Err() != nil || string(magic) != binMagic {
		return nil, errBadMagic
	}
	p := &Program{}
	p.Name = r.String()
	p.SharedBytes = r.Size("shared size", math.MaxInt32)
	p.BlockDim = r.Size("block dim", math.MaxInt32)
	nf := int(r.U16())
	if r.Err() != nil {
		return nil, r.Err()
	}
	if nf == 0 || nf > 1<<12 {
		return nil, fmt.Errorf("isa: implausible function count %d", nf)
	}
	p.Funcs = make([]*Function, 0, nf)
	for fi := 0; fi < nf; fi++ {
		f := &Function{}
		f.Name = r.String()
		flags := r.U8()
		f.HasRet = flags&1 != 0
		f.Allocated = flags&2 != 0
		f.NumArgs = int(r.U8())
		f.NumVRegs = int(r.U16())
		f.FrameSlots = int(r.U16())
		f.SpillShared = int(r.U16())
		f.SpillLocal = int(r.U16())
		ni := r.Size("instruction count", len(r.data)/instrBytes+1)
		if r.Err() != nil {
			return nil, r.Err()
		}
		f.Instrs = make([]Instr, ni)
		for i := 0; i < ni; i++ {
			in := &f.Instrs[i]
			in.Op = Op(r.U8())
			in.Width = r.U8()
			in.Cmp = Cmp(r.U8())
			in.Sp = Sp(r.U8())
			in.Dst = Reg(r.U16())
			in.Src[0] = Reg(r.U16())
			in.Src[1] = Reg(r.U16())
			in.Src[2] = Reg(r.U16())
			in.Imm = int32(r.U32())
			in.Tgt = int32(r.U32())
		}
		nb := int(r.U16())
		if nb > 0 {
			f.CallBounds = make([]int, nb)
			for i := range f.CallBounds {
				f.CallBounds[i] = int(r.U16())
			}
		}
		if r.Err() != nil {
			return nil, r.Err()
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

// Reader decodes the little-endian fields of a binary container with a
// sticky error: once a read runs past the end, or a Size is implausible,
// every later read returns zero and Err reports the first failure. A
// decoder reads a run of fields and checks Err once.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader returns a Reader positioned at the start of data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Bytes returns the next n bytes, a view into the data, or nil on failure.
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.data)-r.off {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.Bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.Bytes(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.Bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.Bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Size reads a uint32 that the decoder keeps as an int, failing as
// implausible above limit. The check is made before the conversion: on a
// 32-bit platform a value of 2³¹ or more would turn negative and pass it.
func (r *Reader) Size(what string, limit int) int {
	v := r.U32()
	if r.err == nil && uint64(v) > uint64(limit) {
		r.err = fmt.Errorf("isa: implausible %s %d", what, v)
	}
	if r.err != nil {
		return 0
	}
	return int(v)
}

// String reads a string stored as a uint16 length and its bytes.
func (r *Reader) String() string {
	return string(r.Bytes(int(r.U16())))
}

func appendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}
