package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/isa"
	"repro/internal/occupancy"
)

// The multi-version binary of the paper's Figure 3: the compiler's output
// artifact packaging the original version, the candidate versions in the
// tuning direction, the fail-safe versions, and the tuning metadata, so
// the runtime can adapt without recompiling. Encoded as an "OFA2"
// container: a table of ORN1 programs, one per fingerprint in first-use
// order, the source first, which the versions index. The source is what
// the tuner's oracle diffs every version against.

const fatMagic = "OFA2"

var errBadFat = errors.New("core: bad multi-version binary")

// noStatic is the static-choice version index of a binary without one.
const noStatic = 0xFFFF

// EncodeFat serializes a compile result into the multi-version binary.
func EncodeFat(cr *CompileResult) []byte {
	// Versions by identity (decreasing candidates share the original
	// version), programs by content with the source first.
	var versions []*Version
	for _, c := range slices.Concat([]*Candidate{{Version: cr.Original}}, cr.Candidates, cr.FailSafe, []*Candidate{cr.StaticChoice}) {
		if c != nil && !slices.Contains(versions, c.Version) {
			versions = append(versions, c.Version)
		}
	}
	var progs [][]byte
	table := map[isa.Fingerprint]int{}
	prog := func(p *isa.Program) int {
		fp := fingerprintOf(p)
		if _, ok := table[fp]; !ok {
			table[fp] = len(progs)
			progs = append(progs, isa.Encode(p))
		}
		return table[fp]
	}
	prog(cr.Source)
	for _, v := range versions {
		prog(v.Prog)
	}

	le := binary.LittleEndian
	b := []byte(fatMagic)
	b = le.AppendUint16(b, uint16(cr.MaxLive))
	b = append(b, byte(cr.Direction))
	b = le.AppendUint16(b, uint16(len(progs)))
	for _, p := range progs {
		b = le.AppendUint32(b, uint32(len(p)))
		b = append(b, p...)
	}
	b = le.AppendUint16(b, uint16(len(versions)))
	for _, v := range versions {
		b = le.AppendUint16(b, uint16(prog(v.Prog)))
		b = le.AppendUint16(b, uint16(v.TargetWarps))
		b = le.AppendUint16(b, uint16(v.RegsPerThread))
		b = le.AppendUint32(b, uint32(v.SharedPerBlock))
		b = le.AppendUint16(b, uint16(v.LocalSlots))
		b = le.AppendUint32(b, uint32(v.Moves))
		b = le.AppendUint16(b, uint16(v.Natural.ActiveBlocks))
		b = le.AppendUint16(b, uint16(v.Natural.ActiveWarps))
		b = append(b, byte(v.Natural.Limiter))
		b = le.AppendUint64(b, math.Float64bits(v.Natural.Occupancy))
	}
	b = le.AppendUint16(b, uint16(slices.Index(versions, cr.Original)))
	for _, cs := range [][]*Candidate{cr.Candidates, cr.FailSafe} {
		b = le.AppendUint16(b, uint16(len(cs)))
		for _, c := range cs {
			b = le.AppendUint16(b, uint16(slices.Index(versions, c.Version)))
			b = le.AppendUint16(b, uint16(c.TargetWarps))
		}
	}
	static, target := noStatic, 0
	if c := cr.StaticChoice; c != nil {
		static, target = slices.Index(versions, c.Version), c.TargetWarps
	}
	b = le.AppendUint16(b, uint16(static))
	return le.AppendUint16(b, uint16(target))
}

// DecodeFat parses a multi-version binary back into a CompileResult ready
// for Realizer.TuneCompiled, Source included. Every field is read through
// isa.Reader; a truncated or implausible field, an index out of range or
// another format's magic is errBadFat. Each table entry is decoded once,
// so versions that index one entry share its *isa.Program.
func DecodeFat(data []byte) (*CompileResult, error) {
	r := isa.NewReader(data)
	if string(r.Bytes(len(fatMagic))) != fatMagic {
		return nil, errBadFat
	}
	cr := &CompileResult{MaxLive: int(r.U16()), Direction: Direction(r.U8())}
	if r.Err() != nil {
		return nil, errBadFat
	}
	if cr.Direction != Increasing && cr.Direction != Decreasing {
		return nil, fmt.Errorf("core: bad direction %d in multi-version binary", cr.Direction)
	}
	progs := make([]*isa.Program, r.U16())
	for i := range progs {
		prog := r.Bytes(r.Size("program length", len(data)))
		if r.Err() != nil {
			return nil, errBadFat
		}
		var err error
		if progs[i], err = isa.Decode(prog); err != nil {
			return nil, fmt.Errorf("core: program %d: %w", i, err)
		}
	}
	if len(progs) == 0 {
		return nil, errBadFat
	}
	cr.Source = progs[0]
	versions := make([]*Version, r.U16())
	for i := range versions {
		pi := int(r.U16())
		if r.Err() != nil || pi >= len(progs) {
			return nil, errBadFat
		}
		// Fields in wire order: a composite literal evaluates left to right.
		versions[i] = &Version{
			Prog:           progs[pi],
			TargetWarps:    int(r.U16()),
			RegsPerThread:  int(r.U16()),
			SharedPerBlock: int(r.U32()),
			LocalSlots:     int(r.U16()),
			Moves:          int(r.U32()),
			Natural: occupancy.Result{
				ActiveBlocks: int(r.U16()),
				ActiveWarps:  int(r.U16()),
				Limiter:      occupancy.Limiter(r.U8()),
				Occupancy:    math.Float64frombits(r.U64()),
			},
		}
	}
	// at resolves a version index; one out of range fails the decode.
	bad := false
	at := func(vi uint16) *Version {
		if int(vi) >= len(versions) {
			bad = true
			return nil
		}
		return versions[vi]
	}
	cands := func() []*Candidate {
		n := int(r.U16()) // 4 bytes an entry: a count past the end allocates nothing
		e := isa.NewReader(r.Bytes(4 * n))
		if r.Err() != nil {
			return nil
		}
		out := make([]*Candidate, n)
		for i := range out {
			out[i] = &Candidate{Version: at(e.U16()), TargetWarps: int(e.U16())}
		}
		return out
	}
	cr.Original = at(r.U16())
	cr.Candidates = cands()
	cr.FailSafe = cands()
	if vi, tw := r.U16(), int(r.U16()); vi != noStatic {
		cr.StaticChoice = &Candidate{Version: at(vi), TargetWarps: tw}
	}
	if r.Err() != nil || bad {
		return nil, errBadFat
	}
	return cr, nil
}
