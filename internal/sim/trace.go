package sim

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/interp"
)

// IssueRecord is one traced instruction issue.
type IssueRecord struct {
	Cycle uint64
	SM    int16
	Warp  int32 // global warp id
	Kind  interp.Kind
	Mem   bool // touched DRAM/L2/L1 (global or local space)
}

// traceWarps is how many warps, by global id from 0, a profiled launch
// traces.
const traceWarps = 16

// Trace is a profiled launch's issue records for its first traceWarps
// warps.
type Trace struct {
	Records []IssueRecord
}

// Timeline renders the trace as a text Gantt chart: one row per traced
// warp, time bucketed into width columns. Cells show issue density
// (space, '.', '+', '#'), with 'M' marking buckets dominated by memory
// issues.
func (tr *Trace) Timeline(totalCycles uint64, width int) string {
	if len(tr.Records) == 0 || totalCycles == 0 || width <= 0 {
		return "(no trace)\n"
	}
	warps := map[int32]bool{}
	for _, r := range tr.Records {
		warps[r.Warp] = true
	}
	ids := make([]int32, 0, len(warps))
	for id := range warps {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	row := map[int32]int{}
	for i, id := range ids {
		row[id] = i
	}
	issue := make([][]int, len(ids))
	mem := make([][]int, len(ids))
	for i := range issue {
		issue[i] = make([]int, width)
		mem[i] = make([]int, width)
	}
	bucket := func(c uint64) int {
		b := int(c * uint64(width) / (totalCycles + 1))
		if b >= width {
			b = width - 1
		}
		return b
	}
	maxCount := 1
	for _, r := range tr.Records {
		i, b := row[r.Warp], bucket(r.Cycle)
		issue[i][b]++
		if r.Mem {
			mem[i][b]++
		}
		if issue[i][b] > maxCount {
			maxCount = issue[i][b]
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "timeline: %d cycles across %d columns (%.0f cycles/column)\n",
		totalCycles, width, float64(totalCycles)/float64(width))
	for i, id := range ids {
		fmt.Fprintf(&sb, "w%-4d |", id)
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
