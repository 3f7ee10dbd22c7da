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
	"fmt"
	"strings"

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
// by the Index, the sampled counter tracks, and the issue logs of the
// first warps.
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

	// Warps[g] is global warp g's issue log for the first 16 warps: one
	// LogIssue entry per issue, in cycle order.
	Warps [][]uint64 `json:"warps,omitempty"`
}

// LogIssue is one issue-log entry, cycle<<1 | mem: the issue cycle, and
// whether the instruction touched global or local memory (DRAM/L2/L1).
func LogIssue(cycle uint64, mem bool) uint64 {
	if mem {
		return cycle<<1 | 1
	}
	return cycle << 1
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
	if len(p.Warps) != len(q.Warps) {
		return false
	}
	pairs := [][2][]uint64{
		{p.Issues, q.Issues},
		{p.StallMem, q.StallMem},
		{p.StallALU, q.StallALU},
		{p.StallBarrier, q.StallBarrier},
		{p.StallMSHR, q.StallMSHR},
	}
	for g := range p.Warps {
		pairs = append(pairs, [2][]uint64{p.Warps[g], q.Warps[g]})
	}
	for _, pair := range pairs {
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

// Timeline renders the issue logs as a text Gantt chart: one row per
// warp that issued, time bucketed into width columns. Cells show issue
// density (space, '.', '+', '#'), with 'M' marking buckets dominated by
// memory issues.
func (p *Profile) Timeline(totalCycles uint64, width int) string {
	var ids []int
	for g, log := range p.Warps {
		if len(log) > 0 {
			ids = append(ids, g)
		}
	}
	if len(ids) == 0 || totalCycles == 0 || width <= 0 {
		return "(no trace)\n"
	}
	issue := make([][]int, len(ids))
	mem := make([][]int, len(ids))
	maxCount := 1
	for i, g := range ids {
		issue[i] = make([]int, width)
		mem[i] = make([]int, width)
		for _, rec := range p.Warps[g] {
			b := min(int((rec>>1)*uint64(width)/(totalCycles+1)), width-1)
			issue[i][b]++
			mem[i][b] += int(rec & 1)
			maxCount = max(maxCount, issue[i][b])
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "timeline: %d cycles across %d columns (%.0f cycles/column)\n",
		totalCycles, width, float64(totalCycles)/float64(width))
	for i, g := range ids {
		fmt.Fprintf(&sb, "w%-4d |", g)
		for b := 0; b < width; b++ {
			n := issue[i][b]
			var ch byte
			switch {
			case n == 0:
				ch = ' '
			case mem[i][b]*2 >= n:
				ch = 'M'
			case n*4 <= maxCount:
				ch = '.'
			case n*2 <= maxCount:
				ch = '+'
			default:
				ch = '#'
			}
			sb.WriteByte(ch)
		}
		sb.WriteString("|\n")
	}
	sb.WriteString("legend: '#' dense issue, '+' medium, '.' sparse, 'M' memory-dominated, ' ' stalled\n")
	return sb.String()
}
