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
// backends produce bit-identical profiles because they stamp the same
// flat PCs (isa.Program.PCBases) on their events, and the per-SM counter
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

// Index resolves flat program counters, the numbering both execution
// backends stamp on their events (interp.Event.PC, isa.Program.PCBases),
// back to functions and instructions.
type Index struct {
	Prog  *isa.Program
	funcs []FuncRange
	n     int // flat PCs
}

// NewIndex builds a program's flat-PC index: functions in program order,
// each occupying a contiguous PC range.
func NewIndex(p *isa.Program) *Index {
	b := p.PCBases()
	ix := &Index{Prog: p, funcs: make([]FuncRange, len(p.Funcs)), n: b[len(p.Funcs)]}
	for i, f := range p.Funcs {
		ix.funcs[i] = FuncRange{Name: f.Name, Start: b[i], End: b[i+1]}
	}
	return ix
}

// NumPCs returns the flat PC count.
func (ix *Index) NumPCs() int { return ix.n }

// Funcs returns the per-function PC ranges in program order.
func (ix *Index) Funcs() []FuncRange { return ix.funcs }

// Locate resolves a flat PC to its function range, local PC and
// instruction; in is nil outside the program.
func (ix *Index) Locate(flat int) (fr FuncRange, local int, in *isa.Instr) {
	for i, r := range ix.funcs {
		if flat >= r.Start && flat < r.End {
			local = flat - r.Start
			return r, local, &ix.Prog.Funcs[i].Instrs[local]
		}
	}
	return FuncRange{}, 0, nil
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

	// Per-PC arrays of length Index.NumPCs().
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
