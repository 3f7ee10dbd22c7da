package sim

import "sync/atomic"

// Totals is a point-in-time snapshot of the process-wide simulation
// counters: every uncached Simulate call folds its Stats in once at
// completion, so snapshot deltas expose the stall breakdown and cache
// hierarchy behavior of a phase without touching the per-cycle hot path.
// Runs served from the realization layer's run cache never reach the
// simulator and therefore do not count. Only the benchmark module reads
// them (its sim.* metrics); the CLIs report per-run Stats instead.
type Totals struct {
	Launches     uint64 `json:"launches"`
	Cycles       uint64 `json:"cycles"`
	Instructions uint64 `json:"instructions"`
	SpillInstrs  uint64 `json:"spill_instrs"`

	StallMem     uint64 `json:"stall_mem"`
	StallALU     uint64 `json:"stall_alu"`
	StallBarrier uint64 `json:"stall_barrier"`
	StallMSHR    uint64 `json:"stall_mshr"`

	L1Hits         uint64 `json:"l1_hits"`
	L1Misses       uint64 `json:"l1_misses"`
	L2Hits         uint64 `json:"l2_hits"`
	L2Misses       uint64 `json:"l2_misses"`
	DRAMLines      uint64 `json:"dram_lines"`
	SharedAccesses uint64 `json:"shared_accesses"`
}

// totals is the live accumulator behind SnapshotTotals.
var totals [14]atomic.Uint64

const (
	totLaunches = iota
	totCycles
	totInstructions
	totSpillInstrs
	totStallMem
	totStallALU
	totStallBarrier
	totStallMSHR
	totL1Hits
	totL1Misses
	totL2Hits
	totL2Misses
	totDRAMLines
	totSharedAccesses
)

// addTotals folds one completed launch into the process-wide counters.
// Called once per Simulate, after the per-SM merge.
func addTotals(st *Stats) {
	totals[totLaunches].Add(1)
	totals[totCycles].Add(st.Cycles)
	totals[totInstructions].Add(st.Instructions)
	totals[totSpillInstrs].Add(st.SpillInstrs)
	totals[totStallMem].Add(st.StallMem)
	totals[totStallALU].Add(st.StallALU)
	totals[totStallBarrier].Add(st.StallBarrier)
	totals[totStallMSHR].Add(st.StallMSHR)
	totals[totL1Hits].Add(st.L1Hits)
	totals[totL1Misses].Add(st.L1Misses)
	totals[totL2Hits].Add(st.L2Hits)
	totals[totL2Misses].Add(st.L2Misses)
	totals[totDRAMLines].Add(st.DRAMLines)
	totals[totSharedAccesses].Add(st.SharedAccesses)
}

// SnapshotTotals returns the current process-wide simulation counters.
func SnapshotTotals() Totals {
	return Totals{
		Launches:       totals[totLaunches].Load(),
		Cycles:         totals[totCycles].Load(),
		Instructions:   totals[totInstructions].Load(),
		SpillInstrs:    totals[totSpillInstrs].Load(),
		StallMem:       totals[totStallMem].Load(),
		StallALU:       totals[totStallALU].Load(),
		StallBarrier:   totals[totStallBarrier].Load(),
		StallMSHR:      totals[totStallMSHR].Load(),
		L1Hits:         totals[totL1Hits].Load(),
		L1Misses:       totals[totL1Misses].Load(),
		L2Hits:         totals[totL2Hits].Load(),
		L2Misses:       totals[totL2Misses].Load(),
		DRAMLines:      totals[totDRAMLines].Load(),
		SharedAccesses: totals[totSharedAccesses].Load(),
	}
}

// Delta returns t - prev, fieldwise: the counters attributable to the
// window between two snapshots.
func (t Totals) Delta(prev Totals) Totals {
	return Totals{
		Launches:       t.Launches - prev.Launches,
		Cycles:         t.Cycles - prev.Cycles,
		Instructions:   t.Instructions - prev.Instructions,
		SpillInstrs:    t.SpillInstrs - prev.SpillInstrs,
		StallMem:       t.StallMem - prev.StallMem,
		StallALU:       t.StallALU - prev.StallALU,
		StallBarrier:   t.StallBarrier - prev.StallBarrier,
		StallMSHR:      t.StallMSHR - prev.StallMSHR,
		L1Hits:         t.L1Hits - prev.L1Hits,
		L1Misses:       t.L1Misses - prev.L1Misses,
		L2Hits:         t.L2Hits - prev.L2Hits,
		L2Misses:       t.L2Misses - prev.L2Misses,
		DRAMLines:      t.DRAMLines - prev.DRAMLines,
		SharedAccesses: t.SharedAccesses - prev.SharedAccesses,
	}
}
