package sim

import (
	"repro/internal/obs"
	"repro/internal/prof"
)

// Counter-track sampling: every SM samples each sampleBase cycles and,
// whenever it holds maxSamples samples, merges adjacent pairs and doubles
// its interval, so a profiled SM never holds more than maxSamples per
// track however long the launch runs.
const (
	sampleBase = 64
	maxSamples = 512
)

// traceWarps is how many warps, by global id from 0, a profiled launch
// logs issues for.
const traceWarps = 16

// smProf is one SM's profiling state, allocated only when Config.Profile
// is set: flat per-PC counter arrays (indexed by interp.Event.PC) and the
// raw per-interval samples. Like every other per-SM structure it is
// private to the SM's goroutine and merged in SM-index order afterwards,
// so profiles inherit the simulator's bit-determinism.
type smProf struct {
	issues []uint64    // per-PC issue counts
	stalls [5][]uint64 // per-PC stall cycles by stallKind ([stallNone] unused)

	// Counter-track sampling: one sample per interval boundary b covers
	// cycles [b-interval, b) and is taken the first time the SM's clock
	// reaches b (skip-ahead jumps fill every boundary they cross).
	interval   uint64
	nextSample uint64
	lastInstr  uint64
	resident   []float64
	instrs     []float64
	mshrs      []float64
}

// newSMProf returns the SM's profiling state, or nil when profiling is
// off — the nil check is the entire disabled-path cost.
func newSMProf(e *engine) *smProf {
	if !e.cfg.Profile {
		return nil
	}
	b := e.lc.Prog.PCBases()
	n := b[len(b)-1]
	p := &smProf{issues: make([]uint64, n),
		interval: sampleBase, nextSample: sampleBase}
	for k := stallMem; k <= stallMSHR; k++ {
		p.stalls[k] = make([]uint64, n)
	}
	return p
}

// sample records every interval boundary the SM's clock has reached.
// Called at the top of the SM loop, where sm.live and the instruction
// total are exact for all cycles < now; a skip-ahead jump crosses each
// boundary with zero issued instructions and unchanged residency, which
// is exactly what gets recorded.
func (p *smProf) sample(sm *smCtx, now uint64) {
	for p.nextSample <= now {
		b := p.nextSample
		p.resident = append(p.resident, float64(sm.live))
		p.instrs = append(p.instrs, float64(sm.st.instructions-p.lastInstr))
		p.lastInstr = sm.st.instructions
		n := 0
		for _, c := range sm.mshr {
			if c > b {
				n++
			}
		}
		p.mshrs = append(p.mshrs, float64(n))
		if len(p.resident) == maxSamples {
			p.coarsen(2)
		}
		p.nextSample += p.interval
	}
}

// coarsen merges every f adjacent samples into one — residency and MSHR
// keep the group's last sample, instructions add — and multiplies the
// interval by f, which gives exactly the samples the coarser interval
// would have taken. A trailing partial group goes back into the unsampled
// remainder (the instructions since lastInstr).
func (p *smProf) coarsen(f int) {
	n := len(p.resident) / f
	for i := 0; i < n; i++ {
		last := i*f + f - 1
		p.resident[i], p.mshrs[i] = p.resident[last], p.mshrs[last]
		sum := 0.0
		for _, v := range p.instrs[i*f : last+1] {
			sum += v
		}
		p.instrs[i] = sum
	}
	for _, v := range p.instrs[n*f:] {
		p.lastInstr -= uint64(v)
	}
	p.resident, p.instrs, p.mshrs = p.resident[:n], p.instrs[:n], p.mshrs[:n]
	p.interval *= uint64(f)
}

// mergeProfiles folds the per-SM profiling state into one Profile in
// SM-index order. PC counters sum as integers; the issue logs, one writer
// each, need no merge. The track interval is the smallest sampleBase·2^k
// with at most 256 intervals in the launch; no SM has doubled past it (an
// SM reaches interval 2i only after 512i cycles), so each coarsens up to
// it. Counter tracks then align on interval boundaries and pad with zeros
// past an SM's finish (an idle SM contributes nothing), with any
// instructions issued after an SM's last boundary flushed into its first
// missing sample so the instructions track still sums to
// Stats.Instructions over full intervals.
func mergeProfiles(e *engine, sms []*smCtx, st *Stats) *prof.Profile {
	ix := prof.NewIndex(e.lc.Prog)
	pcs := ix.NumPCs()
	p := &prof.Profile{
		Index:        ix,
		Issues:       make([]uint64, pcs),
		StallMem:     make([]uint64, pcs),
		StallALU:     make([]uint64, pcs),
		StallBarrier: make([]uint64, pcs),
		StallMSHR:    make([]uint64, pcs),
		Warps:        e.logs,
	}
	for _, sm := range sms {
		sp := sm.prof
		for i := 0; i < pcs; i++ {
			p.Issues[i] += sp.issues[i]
			p.StallMem[i] += sp.stalls[stallMem][i]
			p.StallALU[i] += sp.stalls[stallALU][i]
			p.StallBarrier[i] += sp.stalls[stallBarrier][i]
			p.StallMSHR[i] += sp.stalls[stallMSHR][i]
		}
	}
	iv := uint64(sampleBase)
	for iv*256 < st.Cycles {
		iv *= 2
	}
	p.Interval = iv
	n := int(st.Cycles / iv)
	resident := make([]float64, n)
	instrs := make([]float64, n)
	mshrs := make([]float64, n)
	for _, sm := range sms {
		sp := sm.prof
		sp.coarsen(int(iv / sp.interval))
		for i, v := range sp.resident {
			if i >= n {
				break
			}
			resident[i] += v
			instrs[i] += sp.instrs[i]
			mshrs[i] += sp.mshrs[i]
		}
		if k := len(sp.resident); k < n {
			instrs[k] += float64(sm.st.instructions - sp.lastInstr)
		}
	}
	ipc := make([]float64, n)
	for i := range ipc {
		ipc[i] = instrs[i] / float64(iv)
	}
	p.Tracks = []prof.Track{
		{Name: "resident_warps", Points: resident},
		{Name: "instructions", Points: instrs},
		{Name: "ipc", Points: ipc},
		{Name: "mshr_pending", Points: mshrs},
	}
	return p
}

// exportCounterTracks publishes a merged profile's counter tracks to the
// observability collector as Chrome trace counter series, timestamped in
// simulated cycles at each interval's closing boundary.
func exportCounterTracks(x obs.Ctx, p *prof.Profile) {
	if p == nil {
		return
	}
	units := map[string]string{
		"resident_warps": "warps",
		"instructions":   "instrs",
		"ipc":            "instrs/cycle",
		"mshr_pending":   "entries",
	}
	for _, t := range p.Tracks {
		ts := make([]float64, len(t.Points))
		for i := range ts {
			ts[i] = float64(p.Interval) * float64(i+1)
		}
		x.AddCounterTrack(obs.CounterTrack{
			Name: "sim." + t.Name, Unit: units[t.Name], TS: ts, Vals: t.Points,
		})
	}
}
