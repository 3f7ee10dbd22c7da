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
	add := func(v *Version) {
		if _, ok := index[v]; !ok {
			index[v] = len(versions)
			versions = append(versions, v)
		}
	}
	add(cr.Original)
	for _, c := range slices.Concat(cr.Candidates, cr.FailSafe) {
		add(c.Version)
	}
	staticIdx, staticTarget := -1, 0
	if cr.StaticChoice != nil {
		staticIdx = -2 // references a version directly (e.g., the original)
		staticTarget = cr.StaticChoice.TargetWarps
		for i, c := range cr.Candidates {
			if c == cr.StaticChoice {
				staticIdx = i
			}
		}
	}

	le := binary.LittleEndian
	b := []byte(fatMagic)
	b = le.AppendUint16(b, uint16(cr.MaxLive))
	b = append(b, byte(cr.Direction))
	b = le.AppendUint16(b, uint16(staticIdx))
	b = le.AppendUint16(b, uint16(staticTarget))
	b = le.AppendUint16(b, uint16(len(versions)))
	for _, v := range versions {
		b = le.AppendUint16(b, uint16(v.TargetWarps))
		b = le.AppendUint16(b, uint16(v.RegsPerThread))
		b = le.AppendUint32(b, uint32(v.SharedPerBlock))
		b = le.AppendUint16(b, uint16(v.LocalSlots))
		b = le.AppendUint32(b, uint32(v.Moves))
		b = le.AppendUint16(b, uint16(v.Natural.ActiveBlocks))
		b = le.AppendUint16(b, uint16(v.Natural.ActiveWarps))
		b = append(b, byte(v.Natural.Limiter))
		b = le.AppendUint64(b, math.Float64bits(v.Natural.Occupancy))
		prog := isa.Encode(v.Prog)
		b = le.AppendUint32(b, uint32(len(prog)))
		b = append(b, prog...)
	}
	b = le.AppendUint16(b, uint16(index[cr.Original]))
	for _, cs := range [][]*Candidate{cr.Candidates, cr.FailSafe} {
		b = le.AppendUint16(b, uint16(len(cs)))
		for _, c := range cs {
			b = le.AppendUint16(b, uint16(index[c.Version]))
			b = le.AppendUint16(b, uint16(c.TargetWarps))
		}
	}
	return b
}

// DecodeFat parses a multi-version binary back into a CompileResult ready
// for Realizer.TuneCompiled. Every field is read through isa.Reader; a
// truncated or implausible field is errBadFat. Versions with equal program
// bytes share one decoded *isa.Program, as the ladder's do.
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
	staticIdx := int16(r.U16())
	staticTarget := int(r.U16())
	versions := make([]*Version, r.U16())
	progs := map[string]*isa.Program{}
	for i := range versions {
		// Fields in wire order: a composite literal evaluates left to right.
		v := &Version{
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
		prog := r.Bytes(r.Size("program length", len(data)))
		if r.Err() != nil {
			return nil, errBadFat
		}
		if v.Prog = progs[string(prog)]; v.Prog == nil {
			var err error
			if v.Prog, err = isa.Decode(prog); err != nil {
				return nil, fmt.Errorf("core: version %d: %w", i, err)
			}
			progs[string(prog)] = v.Prog
		}
		versions[i] = v
	}
	oi := int(r.U16())
	if r.Err() != nil || oi >= len(versions) {
		return nil, errBadFat
	}
	cr.Original = versions[oi]
	// versions is not empty here, so a truncated ref (zero) stays in range
	// until the final Err check.
	refs := func() ([]*Candidate, error) {
		out := make([]*Candidate, r.U16())
		for i := range out {
			vi, tw := int(r.U16()), int(r.U16())
			if vi >= len(versions) {
				return nil, errBadFat
			}
			out[i] = &Candidate{Version: versions[vi], TargetWarps: tw}
		}
		return out, nil
	}
	var err error
	if cr.Candidates, err = refs(); err != nil {
		return nil, err
	}
	if cr.FailSafe, err = refs(); err != nil {
		return nil, err
	}
	if r.Err() != nil {
		return nil, errBadFat
	}
	switch {
	case staticIdx >= 0:
		if int(staticIdx) >= len(cr.Candidates) {
			return nil, errBadFat
		}
		cr.StaticChoice = cr.Candidates[staticIdx]
	case staticIdx == -2:
		cr.StaticChoice = &Candidate{Version: cr.Original, TargetWarps: staticTarget}
	}
	return cr, nil
}
