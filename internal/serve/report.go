package serve

// This file is the canonical tune-report JSON: the single wire format
// for tuning results, produced identically by the daemon's /v1/tune
// handler and the CLI's `orion tune -json`. Every field derives from
// deterministic computation (the simulator, the allocator, the tuner) —
// no wall-clock times, no map iteration, no pointers — so the same
// kernel, device, and launch always encode to the same bytes. That
// byte-identity is what lets the artifact store serve cached reports
// forever and lets tests diff the daemon against the one-shot CLI.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/isa"
	"repro/internal/sim"
)

// Params is the request half of a report: everything the client chose
// (or defaulted into). It is also the cache key material — two requests
// with equal Params and equal program fingerprints share one artifact.
type Params struct {
	Kernel  string `json:"kernel"`
	Device  string `json:"device"`
	Cache   string `json:"cache"`
	Backend string `json:"backend"`
	Grid    int    `json:"grid_warps"`
	Iters   int    `json:"iterations"`
	Lint    string `json:"lint"`
	Verify  bool   `json:"verify"`
}

// NewParams builds the canonical Params from resolved values — never from
// the raw flag or query text, so aliases like device=kepler produce
// byte-identical reports. It is the one constructor behind the daemon's
// requests and `orion tune -json`.
func NewParams(prog *isa.Program, dev *device.Device, cc device.CacheConfig, lc core.Launch, lint core.LintMode, verify bool) Params {
	return Params{
		Kernel:  prog.Name,
		Device:  dev.Name,
		Cache:   cc.String(),
		Backend: sim.DefaultBackend().String(),
		Grid:    lc.GridWarps,
		Iters:   lc.Iterations,
		Lint:    lint.String(),
		Verify:  verify,
	}
}

// CandidateJSON is one version's footprint at its target occupancy.
type CandidateJSON struct {
	TargetWarps int     `json:"target_warps"`
	Occupancy   float64 `json:"occupancy"`
	Regs        int     `json:"regs_per_thread"`
	SharedBytes int     `json:"shared_per_block"`
	LocalSlots  int     `json:"local_slots"`
}

// DecisionJSON is one runtime tuning step of the decision log.
type DecisionJSON struct {
	Iter        int     `json:"iter"`
	TargetWarps int     `json:"target_warps"`
	Runtime     float64 `json:"runtime"`
	Slowdown    float64 `json:"slowdown"`
	Accepted    bool    `json:"accepted"`
	Reason      string  `json:"reason"`
	Finalized   bool    `json:"finalized"`
}

// Report is the canonical tuning outcome for one (kernel, device,
// launch) request.
type Report struct {
	Params      Params `json:"params"`
	Fingerprint string `json:"fingerprint"`
	DeviceFP    string `json:"device_fingerprint"`

	CanTune   bool   `json:"can_tune"`
	MaxLive   int    `json:"max_live"`
	Direction string `json:"direction"`

	Candidates []CandidateJSON `json:"candidates"`
	FailSafe   []int           `json:"fail_safe"`

	Chosen         CandidateJSON  `json:"chosen"`
	TuneIterations int            `json:"tune_iterations"`
	KernelSplit    bool           `json:"kernel_split"`
	Runs           int            `json:"runs"`
	TotalCycles    uint64         `json:"total_cycles"`
	TotalEnergy    float64        `json:"total_energy"`
	Checksum       string         `json:"checksum"`
	Decisions      []DecisionJSON `json:"decisions"`
}

func candidateJSON(c *core.Candidate, d *device.Device) CandidateJSON {
	return CandidateJSON{
		TargetWarps: c.TargetWarps,
		Occupancy:   c.Occupancy(d),
		Regs:        c.Version.RegsPerThread,
		SharedBytes: c.Version.SharedPerBlock,
		LocalSlots:  c.Version.LocalSlots,
	}
}

// BuildReport assembles the canonical report from a tune outcome. Every
// field it reads survives the fat-binary round trip, so a report built
// from a freshly compiled result and one built from a decoded stored
// artifact are identical.
func BuildReport(p Params, prog *isa.Program, dev *device.Device, canTune bool, rep *core.TuneReport) *Report {
	r := &Report{
		Params:         p,
		Fingerprint:    prog.Fingerprint().String(),
		DeviceFP:       fmt.Sprintf("%016x", dev.Fingerprint()),
		CanTune:        canTune,
		MaxLive:        rep.Compile.MaxLive,
		Direction:      rep.Compile.Direction.String(),
		Candidates:     make([]CandidateJSON, 0, len(rep.Compile.Candidates)),
		FailSafe:       make([]int, 0, len(rep.Compile.FailSafe)),
		Chosen:         candidateJSON(rep.Chosen, dev),
		TuneIterations: rep.TuneIterations,
		KernelSplit:    rep.KernelSplit,
		Runs:           len(rep.History),
		TotalCycles:    rep.TotalCycles,
		TotalEnergy:    rep.TotalEnergy,
		Checksum:       fmt.Sprintf("%016x", rep.Checksum),
		Decisions:      make([]DecisionJSON, 0, len(rep.Decisions)),
	}
	for _, c := range rep.Compile.Candidates {
		r.Candidates = append(r.Candidates, candidateJSON(c, dev))
	}
	for _, c := range rep.Compile.FailSafe {
		r.FailSafe = append(r.FailSafe, c.TargetWarps)
	}
	for _, d := range rep.Decisions {
		r.Decisions = append(r.Decisions, DecisionJSON{
			Iter:        d.Iter,
			TargetWarps: d.TargetWarps,
			Runtime:     d.Runtime,
			Slowdown:    d.Slowdown,
			Accepted:    d.Accepted,
			Reason:      d.Reason,
			Finalized:   d.Finalized,
		})
	}
	return r
}

// EncodeReport renders the report as indented JSON with a trailing
// newline: the exact bytes stored, served, and written by the CLI.
func EncodeReport(r *Report) []byte {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		// Report contains only marshal-safe field types; reaching this
		// means a programming error, not bad input.
		panic(err)
	}
	return append(data, '\n')
}

// RequestKey derives the artifact-store key for an operation on a
// program: a sha256 over the operation name and every parameter that can
// change the resulting bytes. The program participates by content
// fingerprint and the device by its parameter hash, so renamed kernels
// and re-tuned device models never alias.
func RequestKey(op string, p Params, prog *isa.Program, dev *device.Device) string {
	h := sha256.New()
	field := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	field(op)
	field(prog.Fingerprint().String())
	field(strconv.FormatUint(dev.Fingerprint(), 16))
	field(p.Cache)
	field(p.Backend)
	field(p.Lint)
	field(strconv.FormatBool(p.Verify))
	field(strconv.Itoa(p.Grid))
	field(strconv.Itoa(p.Iters))
	return hex.EncodeToString(h.Sum(nil))
}
