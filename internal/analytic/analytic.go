// Package analytic implements the Hong & Kim MWP-CWP analytical GPU
// performance model (ISCA 2009), the prior approach the paper contrasts
// Orion against (references [12]/[13]): occupancy-dependent performance is
// *predicted* from profiled instruction counts instead of measured by
// running candidate binaries. The reproduction uses it two ways: as a
// cross-check of the timing simulator's occupancy curves, and to
// demonstrate why the paper argues for feedback over prediction (the
// model cannot see spill code introduced at compile time until the
// program is re-profiled, nor cache behaviour at all).
package analytic

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/interp"
	"repro/internal/isa"
)

// Inputs are the model's parameters for one kernel/occupancy pairing.
type Inputs struct {
	Dev *device.Device

	// Per-warp dynamic instruction counts (from profiling).
	InstsPerWarp    float64
	MemInstsPerWarp float64

	// ActiveWarpsPerSM is the occupancy level under evaluation.
	ActiveWarpsPerSM int
	// TotalWarps in the grid.
	TotalWarps int

	// MemLatency overrides the average memory latency (0 = derive from the
	// device: L1+L2+DRAM for a cache-less estimate).
	MemLatency float64
	// DepartureDelay overrides the cycles between consecutive memory
	// transactions leaving one SM (0 = derive from DRAM service time and
	// SM count).
	DepartureDelay float64
}

// Bound classifies what limits throughput under the model.
type Bound string

// Boundedness classes.
const (
	MemoryBound  Bound = "memory"
	ComputeBound Bound = "compute"
	WarpStarved  Bound = "warp-starved"
)

// Prediction is the model's output.
type Prediction struct {
	MWP    float64 // memory warp parallelism (warps with outstanding misses)
	CWP    float64 // computation warp parallelism
	Cycles float64 // predicted execution cycles for the whole grid
	Bound  Bound
}

// Predict evaluates the MWP-CWP model.
func Predict(in Inputs) (Prediction, error) {
	d := in.Dev
	if d == nil {
		return Prediction{}, fmt.Errorf("analytic: device required")
	}
	if in.ActiveWarpsPerSM <= 0 || in.TotalWarps <= 0 {
		return Prediction{}, fmt.Errorf("analytic: warp counts must be positive")
	}
	if in.InstsPerWarp <= 0 {
		return Prediction{}, fmt.Errorf("analytic: instruction counts must be positive")
	}
	n := float64(in.ActiveWarpsPerSM)

	memL := in.MemLatency
	if memL == 0 {
		memL = float64(d.L1Latency + d.L2Latency + d.DRAMLatency)
	}
	// Departure delay: consecutive transactions from the device's SMs
	// share the DRAM channel, so one SM's transactions depart every
	// DRAMServiceCycles*SMs cycles under full load.
	dep := in.DepartureDelay
	if dep == 0 {
		dep = d.DRAMServiceCycles * float64(d.SMs)
		if dep < 1 {
			dep = 1
		}
	}

	// Computation cycles per warp: instructions issue at the SM's width.
	compCycles := in.InstsPerWarp / float64(d.IssueWidth)
	memInsts := in.MemInstsPerWarp
	if memInsts < 1 {
		memInsts = 1
	}
	memCycles := memL * memInsts

	mwpNoBW := memL / dep
	mwp := mwpNoBW
	if mwp > n {
		mwp = n
	}
	if mwp < 1 {
		mwp = 1
	}
	cwp := (memCycles + compCycles) / compCycles
	if cwp > n {
		cwp = n
	}
	if cwp < 1 {
		cwp = 1
	}

	compCyclesPerMem := compCycles / memInsts
	var perSM float64
	var bound Bound
	switch {
	case mwp == n && cwp == n:
		// Enough warps that neither side saturates: one warp's full time
		// plus the issue work of its peers.
		perSM = memCycles + compCycles + compCyclesPerMem*(n-1)
		bound = WarpStarved
	case cwp >= mwp:
		// Memory bound: memory periods serialize in groups of MWP.
		perSM = memCycles*(n/mwp) + compCyclesPerMem*(mwp-1)
		bound = MemoryBound
	default:
		// Compute bound: computation covers all memory latency.
		perSM = memL + compCycles*n
		bound = ComputeBound
	}

	// Repetitions: waves of blocks through the device.
	warpsPerWave := float64(in.ActiveWarpsPerSM * d.SMs)
	waves := float64(in.TotalWarps) / warpsPerWave
	if waves < 1 {
		waves = 1
	}
	return Prediction{MWP: mwp, CWP: cwp, Cycles: perSM * waves, Bound: bound}, nil
}

// Profile measures the per-warp dynamic instruction mix of a program by
// functional execution (the model's required off-line profiling pass; the
// paper's critique is exactly that this pass is needed).
func Profile(p *isa.Program, sampleWarps int) (instsPerWarp, memInstsPerWarp float64, err error) {
	if sampleWarps < 1 {
		sampleWarps = 1
	}
	layout, err := interp.NewLayout(p)
	if err != nil {
		return 0, 0, err
	}
	lc := &interp.Launch{Prog: p, GridWarps: sampleWarps}
	var insts, mems int
	for wi := 0; wi < sampleWarps; wi++ {
		var shared []uint32
		if p.SharedBytes > 0 {
			shared = make([]uint32, (p.SharedBytes+3)/4)
		}
		w, err := interp.NewWarp(lc, layout, wi, shared)
		if err != nil {
			return 0, 0, err
		}
		for !w.Done() {
			ev := w.Peek()
			insts++
			if (ev.Kind == interp.KindLoad || ev.Kind == interp.KindStore) &&
				ev.Space != interp.SpaceShared {
				mems++
			}
			if err := w.Advance(); err != nil {
				return 0, 0, err
			}
			if insts > 10_000_000 {
				return 0, 0, fmt.Errorf("analytic: profiling budget exceeded")
			}
		}
	}
	return float64(insts) / float64(sampleWarps), float64(mems) / float64(sampleWarps), nil
}

// PredictProgram profiles a program and predicts its cycles at the given
// occupancy.
func PredictProgram(d *device.Device, p *isa.Program, activeWarpsPerSM, totalWarps int) (Prediction, error) {
	insts, mems, err := Profile(p, 2)
	if err != nil {
		return Prediction{}, err
	}
	return Predict(Inputs{
		Dev:              d,
		InstsPerWarp:     insts,
		MemInstsPerWarp:  mems,
		ActiveWarpsPerSM: activeWarpsPerSM,
		TotalWarps:       totalWarps,
	})
}
