package opt

import (
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/tv"
)

// Fingerprint identifies this pipeline's behavior for realize-cache keys:
// a cached artifact built with the pipeline enabled is only reused while
// the pipeline that built it is byte-for-byte the one that would run now.
// Bump the low bits whenever the pass's output can change.
const Fingerprint uint64 = 0x6f70_7400_0000_0004 // "opt", revision 4

// Stats reports what one pipeline invocation did.
type Stats struct {
	MaxLiveBefore int  // width-summed max-live of the input function
	MaxLiveAfter  int  // max-live of the returned function
	SchedBlocks   int  // blocks whose instruction order changed
	Changed       bool // whether the returned function differs from the input

	// Legality-check outcome of this invocation's schedule. TVDiag holds a
	// rejection's diagnostic (the reversed edge or structural difference).
	TVChecked  int
	TVRejected int
	TVDiag     string
}

// Run is RunTV in strict mode without observability.
func Run(f *isa.Function, budget int) (*isa.Function, Stats, error) {
	return RunTV(f, budget, tv.ModeStrict, obs.Ctx{})
}

// RunTV runs the pressure-aware scheduler on f against a register budget.
// It returns the input f untouched when the function already fits the
// budget or the schedule does not strictly lower max-live; otherwise it
// returns the scheduled clone (web-split register numbering). The budget
// only decides whether the pass runs: the schedule itself does not depend
// on it. An improving schedule is kept only if tv.Validate accepts it as a
// dependence-respecting permutation within blocks; a rejection reverts to
// the input. ModeOff skips the check. A non-nil error means the pipeline
// declined; the input f is still valid and returned.
func RunTV(f *isa.Function, budget int, mode tv.Mode, x obs.Ctx) (*isa.Function, Stats, error) {
	fm, err := buildForm(f)
	if err != nil {
		return f, Stats{}, err
	}
	st := Stats{MaxLiveBefore: fm.maxLive, MaxLiveAfter: fm.maxLive}
	if budget <= 0 || fm.maxLive <= budget {
		return f, st, nil
	}

	sp := x.Span("opt.pipeline",
		obs.String("func", f.Name),
		obs.Int("budget", budget),
		obs.Int("maxlive_before", fm.maxLive))
	defer sp.End()

	nf, blocks := schedule(fm)
	if nf == nil {
		return f, st, nil
	}
	// Strict-decrease guard first: a schedule that does not pay is thrown
	// away, so only one that would be accepted is worth validating.
	nfm, err := buildForm(nf)
	if err != nil || nfm.maxLive >= fm.maxLive {
		return f, st, nil
	}
	ok := tvGate(&st, mode, x, fm.f, nf)
	sp.SetAttr(obs.Int("tv_rejected", st.TVRejected))
	if !ok {
		return f, st, nil
	}
	x.Metrics().Counter("opt.sched.maxlive_delta").Add(uint64(fm.maxLive - nfm.maxLive))
	st.MaxLiveAfter = nfm.maxLive
	st.SchedBlocks = blocks
	st.Changed = true
	sp.SetAttr(obs.Int("maxlive_after", nfm.maxLive))
	return nfm.f, st, nil
}

// tvGate reports whether the driver may keep the schedule: only one the
// legality check accepts, unless mode is Off.
func tvGate(st *Stats, mode tv.Mode, x obs.Ctx, pre, post *isa.Function) bool {
	if mode == tv.ModeOff {
		return true
	}
	res := tv.Validate(pre, post, nil)
	st.TVChecked++
	m := x.Metrics()
	m.Counter("tv.checked").Add(1)
	if res.Verdict != tv.Accept {
		st.TVRejected++
		m.Counter("tv.rejected").Add(1)
		st.TVDiag = res.Reason
		return false
	}
	return true
}
