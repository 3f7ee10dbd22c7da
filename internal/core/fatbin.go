package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/isa"
	"repro/internal/occupancy"
)

// The multi-version binary of the paper's Figure 3: the compiler's output
// artifact packaging the original version, the candidate versions in the
// tuning direction, the fail-safe versions, and the tuning metadata, so
// the runtime can adapt without recompiling. Encoded as an "OFAT"
// container of ORN1 program binaries.

const fatMagic = "OFAT"

var errBadFat = errors.New("core: bad multi-version binary")

// EncodeFat serializes a compile result into the multi-version binary.
func EncodeFat(cr *CompileResult) []byte {
	// Version table with identity-based dedup (decreasing candidates share
	// the original binary).
	var versions []*Version
	index := map[*Version]int{}
	add := func(v *Version) int {
		if i, ok := index[v]; ok {
			return i
		}
		index[v] = len(versions)
		versions = append(versions, v)
		return len(versions) - 1
	}
	origIdx := add(cr.Original)
	type ref struct{ version, target int }
	pack := func(cs []*Candidate) []ref {
		out := make([]ref, len(cs))
		for i, c := range cs {
			out[i] = ref{add(c.Version), c.TargetWarps}
		}
		return out
	}
	cands := pack(cr.Candidates)
	failSafe := pack(cr.FailSafe)
	staticIdx := int16(-1)
	staticTarget := uint16(0)
	if cr.StaticChoice != nil {
		staticIdx = -2 // references a version directly (e.g., the original)
		staticTarget = uint16(cr.StaticChoice.TargetWarps)
		for i, c := range cr.Candidates {
			if c == cr.StaticChoice {
				staticIdx = int16(i)
			}
		}
	}

	var b bytes.Buffer
	b.WriteString(fatMagic)
	wu16 := func(v uint16) { _ = binary.Write(&b, binary.LittleEndian, v) }
	wu32 := func(v uint32) { _ = binary.Write(&b, binary.LittleEndian, v) }
	wu16(uint16(cr.MaxLive))
	b.WriteByte(byte(cr.Direction))
	_ = binary.Write(&b, binary.LittleEndian, staticIdx)
	wu16(staticTarget)
	wu16(uint16(len(versions)))
	for _, v := range versions {
		wu16(uint16(v.TargetWarps))
		wu16(uint16(v.RegsPerThread))
		wu32(uint32(v.SharedPerBlock))
		wu16(uint16(v.LocalSlots))
		wu32(uint32(v.Moves))
		wu16(uint16(v.Natural.ActiveBlocks))
		wu16(uint16(v.Natural.ActiveWarps))
		b.WriteByte(byte(v.Natural.Limiter))
		_ = binary.Write(&b, binary.LittleEndian, math.Float64bits(v.Natural.Occupancy))
		prog := isa.Encode(v.Prog)
		wu32(uint32(len(prog)))
		b.Write(prog)
	}
	wu16(uint16(origIdx))
	writeRefs := func(rs []ref) {
		wu16(uint16(len(rs)))
		for _, r := range rs {
			wu16(uint16(r.version))
			wu16(uint16(r.target))
		}
	}
	writeRefs(cands)
	writeRefs(failSafe)
	return b.Bytes()
}

// DecodeFat parses a multi-version binary back into a CompileResult ready
// for Realizer.TuneCompiled.
func DecodeFat(data []byte) (*CompileResult, error) {
	r := bytes.NewReader(data)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != fatMagic {
		return nil, errBadFat
	}
	var u16 func() (uint16, error)
	u16 = func() (uint16, error) {
		var v uint16
		err := binary.Read(r, binary.LittleEndian, &v)
		return v, err
	}
	u32 := func() (uint32, error) {
		var v uint32
		err := binary.Read(r, binary.LittleEndian, &v)
		return v, err
	}

	cr := &CompileResult{}
	ml, err := u16()
	if err != nil {
		return nil, errBadFat
	}
	cr.MaxLive = int(ml)
	dirByte := make([]byte, 1)
	if _, err := io.ReadFull(r, dirByte); err != nil {
		return nil, errBadFat
	}
	cr.Direction = Direction(dirByte[0])
	if cr.Direction != Increasing && cr.Direction != Decreasing {
		return nil, fmt.Errorf("core: bad direction %d in multi-version binary", dirByte[0])
	}
	var staticIdx int16
	if err := binary.Read(r, binary.LittleEndian, &staticIdx); err != nil {
		return nil, errBadFat
	}
	staticTarget, err := u16()
	if err != nil {
		return nil, errBadFat
	}
	nv, err := u16()
	if err != nil {
		return nil, errBadFat
	}
	versions := make([]*Version, nv)
	for i := range versions {
		v := &Version{}
		tw, err := u16()
		if err != nil {
			return nil, errBadFat
		}
		v.TargetWarps = int(tw)
		regs, err := u16()
		if err != nil {
			return nil, errBadFat
		}
		v.RegsPerThread = int(regs)
		sh, err := u32()
		if err != nil {
			return nil, errBadFat
		}
		v.SharedPerBlock = int(sh)
		ls, err := u16()
		if err != nil {
			return nil, errBadFat
		}
		v.LocalSlots = int(ls)
		mv, err := u32()
		if err != nil {
			return nil, errBadFat
		}
		v.Moves = int(mv)
		ab, err := u16()
		if err != nil {
			return nil, errBadFat
		}
		aw, err := u16()
		if err != nil {
			return nil, errBadFat
		}
		if _, err := io.ReadFull(r, dirByte); err != nil {
			return nil, errBadFat
		}
		var occBits uint64
		if err := binary.Read(r, binary.LittleEndian, &occBits); err != nil {
			return nil, errBadFat
		}
		v.Natural = occupancy.Result{
			ActiveBlocks: int(ab),
			ActiveWarps:  int(aw),
			Limiter:      occupancy.Limiter(dirByte[0]),
			Occupancy:    math.Float64frombits(occBits),
		}
		plen, err := u32()
		if err != nil {
			return nil, errBadFat
		}
		if int(plen) > r.Len() {
			return nil, errBadFat
		}
		progBytes := make([]byte, plen)
		if _, err := io.ReadFull(r, progBytes); err != nil {
			return nil, errBadFat
		}
		prog, err := isa.Decode(progBytes)
		if err != nil {
			return nil, fmt.Errorf("core: version %d: %w", i, err)
		}
		v.Prog = prog
		versions[i] = v
	}
	oi, err := u16()
	if err != nil || int(oi) >= len(versions) {
		return nil, errBadFat
	}
	cr.Original = versions[oi]
	readRefs := func() ([]*Candidate, error) {
		n, err := u16()
		if err != nil {
			return nil, errBadFat
		}
		out := make([]*Candidate, n)
		for i := range out {
			vi, err := u16()
			if err != nil {
				return nil, errBadFat
			}
			tw, err := u16()
			if err != nil {
				return nil, errBadFat
			}
			if int(vi) >= len(versions) {
				return nil, errBadFat
			}
			out[i] = &Candidate{Version: versions[vi], TargetWarps: int(tw)}
		}
		return out, nil
	}
	if cr.Candidates, err = readRefs(); err != nil {
		return nil, err
	}
	if cr.FailSafe, err = readRefs(); err != nil {
		return nil, err
	}
	switch {
	case staticIdx >= 0:
		if int(staticIdx) >= len(cr.Candidates) {
			return nil, errBadFat
		}
		cr.StaticChoice = cr.Candidates[staticIdx]
	case staticIdx == -2:
		cr.StaticChoice = &Candidate{Version: cr.Original, TargetWarps: int(staticTarget)}
	}
	return cr, nil
}
