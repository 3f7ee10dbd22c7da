package core

import (
	"repro/internal/device"
	"repro/internal/prof"
	"repro/internal/sim"
)

// BuildProfileReport ranks a profiled run's Stats into the user-facing
// report, resolving hot spots against the version's provenance map
// (spill webs, register budget); st comes from a profiled run
// (Version.ProfileCtx).
func BuildProfileReport(v *Version, d *device.Device, st *sim.Stats) *prof.Report {
	rep := prof.Build(st.Profile, v.Debug)
	rep.Kernel = v.Prog.Name
	rep.Device = d.Name
	rep.Backend = sim.DefaultBackend().String()
	rep.TargetWarps = v.TargetWarps
	rep.Cycles = st.Cycles
	rep.Instructions = st.Instructions
	rep.Stalls = prof.StallSummary{
		Mem:     st.StallMem,
		ALU:     st.StallALU,
		Barrier: st.StallBarrier,
		MSHR:    st.StallMSHR,
	}
	return rep
}
