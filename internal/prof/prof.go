// Package prof is the simulator-native profiling layer: PC-level issue
// and stall-attribution profiles, per-interval counter tracks, and the
// provenance map that resolves profile lines back to the allocator
// decisions (spill webs, register budgets) that created them.
//
// The package sits below both simulator backends and above nothing: it
// imports only the ISA, so sim, regalloc, and core can all share its
// types without cycles. Collection itself lives in package sim behind
// the one switch sim.Config.Profile — off, the profiler costs the hot
// path one pointer check.
//
// Determinism contract: a PC profile is a pure function of (program,
// device, cache config, residency, grid, scheduler). Both execution
// backends produce bit-identical profiles because they surface the same
// *isa.Instr pointers in their event streams, and the per-SM counter
// arrays merge by integer addition in SM-index order.
package prof

import (
	"repro/internal/isa"
)

// FuncRange is one function's slice of the flat PC space.
type FuncRange struct {
	Name  string `json:"name"`
	Start int    `json:"start"` // first flat PC
	End   int    `json:"end"`   // one past the last flat PC
}

// Index maps instruction identity to flat program counters. Both
// execution backends hand the simulator events whose Instr field points
// into the program's own Funcs[i].Instrs backing arrays, so a pointer
// lookup gives backend-identical attribution with no decoding.
type Index struct {
	Prog  *isa.Program
	funcs []FuncRange
	slots map[*isa.Instr]int32
	n     int // flat PCs; slot n is the unknown-instruction overflow
}

type indexKey struct{}

// IndexOf returns the flat-PC index of a finalized program, built once
// per program (isa.Program.Derived).
func IndexOf(p *isa.Program) *Index {
	v, _ := p.Derived(indexKey{}, func() (any, error) { return NewIndex(p), nil })
	return v.(*Index)
}

// NewIndex builds a flat-PC index: functions in program order, each
// occupying a contiguous PC range.
func NewIndex(p *isa.Program) *Index {
	ix := &Index{Prog: p, slots: make(map[*isa.Instr]int32)}
	for _, f := range p.Funcs {
		start := ix.n
		for i := range f.Instrs {
			ix.slots[&f.Instrs[i]] = int32(ix.n)
			ix.n++
		}
		ix.funcs = append(ix.funcs, FuncRange{Name: f.Name, Start: start, End: ix.n})
	}
	return ix
}

// NumPCs returns the flat PC count (excluding the overflow slot).
func (ix *Index) NumPCs() int { return ix.n }

// NumSlots returns the counter-array length: every PC plus one overflow
// slot for events whose instruction is unknown to this program.
func (ix *Index) NumSlots() int { return ix.n + 1 }

// SlotOf returns the counter slot for an event's instruction pointer;
// unknown (or nil) instructions land in the overflow slot.
func (ix *Index) SlotOf(in *isa.Instr) int32 {
	if s, ok := ix.slots[in]; ok {
		return s
	}
	return int32(ix.n)
}

// Funcs returns the per-function PC ranges in program order.
func (ix *Index) Funcs() []FuncRange { return ix.funcs }

// Locate resolves a flat PC to its function range and local PC; ok is
// false for the overflow slot.
func (ix *Index) Locate(flat int) (fr FuncRange, local int, ok bool) {
	for _, r := range ix.funcs {
		if flat >= r.Start && flat < r.End {
			return r, flat - r.Start, true
		}
	}
	return FuncRange{}, 0, false
}

// Instr returns the instruction at a flat PC (nil for the overflow slot).
func (ix *Index) Instr(flat int) *isa.Instr {
	fr, local, ok := ix.Locate(flat)
	if !ok {
		return nil
	}
	return &ix.Prog.FuncByName(fr.Name).Instrs[local]
}

// Track is one merged counter time series: Points[i] is the value for
// the i-th sampling interval (device-wide, summed across SMs except
// where the series is a ratio).
type Track struct {
	Name   string    `json:"name"`
	Points []float64 `json:"points"`
}

// Profile is one launch's merged profile: flat per-PC counters indexed
// by the Index, plus the sampled counter tracks.
type Profile struct {
	Index *Index `json:"-"`

	// Per-PC arrays of length Index.NumSlots().
	Issues       []uint64 `json:"issues,omitempty"`
	StallMem     []uint64 `json:"stall_mem,omitempty"`
	StallALU     []uint64 `json:"stall_alu,omitempty"`
	StallBarrier []uint64 `json:"stall_barrier,omitempty"`
	StallMSHR    []uint64 `json:"stall_mshr,omitempty"`

	// Interval is the counter sampling period in cycles: the smallest
	// 64·2^k that fits the launch in at most 256 samples.
	Interval uint64  `json:"interval,omitempty"`
	Tracks   []Track `json:"tracks,omitempty"`
}

// StallTotal returns the summed stall attribution at a flat PC.
func (p *Profile) StallTotal(flat int) uint64 {
	return p.StallMem[flat] + p.StallALU[flat] + p.StallBarrier[flat] + p.StallMSHR[flat]
}

// Equal reports whether two profiles are bit-identical (the
// cross-backend differential contract).
func (p *Profile) Equal(q *Profile) bool {
	if p == nil || q == nil {
		return p == q
	}
	if p.Interval != q.Interval || len(p.Tracks) != len(q.Tracks) {
		return false
	}
	for _, pair := range [][2][]uint64{
		{p.Issues, q.Issues},
		{p.StallMem, q.StallMem},
		{p.StallALU, q.StallALU},
		{p.StallBarrier, q.StallBarrier},
		{p.StallMSHR, q.StallMSHR},
	} {
		if len(pair[0]) != len(pair[1]) {
			return false
		}
		for i := range pair[0] {
			if pair[0][i] != pair[1][i] {
				return false
			}
		}
	}
	for t := range p.Tracks {
		if p.Tracks[t].Name != q.Tracks[t].Name ||
			len(p.Tracks[t].Points) != len(q.Tracks[t].Points) {
			return false
		}
		for i := range p.Tracks[t].Points {
			if p.Tracks[t].Points[i] != q.Tracks[t].Points[i] {
				return false
			}
		}
	}
	return true
}
