// Package orion is a from-scratch reproduction of "Orion: A Framework for
// GPU Occupancy Tuning" (Hayes, Li, Chavarría-Miranda, Song, Zhang,
// ACM Middleware 2016).
//
// Orion tunes the occupancy of GPU kernels — the fraction of the
// hardware's warp slots actually resident — by combining a binary-level
// compiler with a runtime feedback tuner. The compiler realizes occupancy
// levels by register allocation (a Chaitin-Briggs variant with wide
// variables), spilling into shared memory and L1-backed local memory, and
// an inter-procedural compressible stack whose slot layout is optimized by
// Kuhn-Munkres matching; the runtime walks candidate binaries using
// measured kernel times, splitting kernels when an application offers no
// iterations.
//
// Since the paper's platforms (NVIDIA GTX680 and Tesla C2075) cannot be
// assumed, this reproduction supplies the full substrate in Go: a
// SASS-like virtual ISA (OASM), assembler/disassembler and binary
// encoder/decoder, SSA-based middle end, the allocators, an NVIDIA-style
// occupancy calculator, and a cycle-approximate multi-SM timing simulator
// with caches, DRAM bandwidth queueing, and an energy model. See DESIGN.md
// for the substitution rationale and EXPERIMENTS.md for paper-vs-measured
// results.
//
// Quick start:
//
//	prog, err := orion.ParseKernel(src)      // OASM text -> program
//	r := orion.NewRealizer(orion.GTX680(), orion.SmallCache)
//	report, err := r.Tune(prog, orion.Launch{GridWarps: 4096, Iterations: 8})
//	fmt.Println(report.Chosen.TargetWarps)   // the selected occupancy
package orion

import (
	"repro/internal/analytic"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/interp"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/occupancy"
	"repro/internal/prof"
	"repro/internal/sa"
	"repro/internal/sim"
)

// Re-exported core types. The paper's contribution lives in these:
// Realizer compiles occupancy-adaptive binaries (Section 3.2-3.3) and
// adapts at runtime (Section 3.4).
type (
	// Realizer compiles a kernel for a device and cache configuration and
	// provides Compile (Figure 8), Tune (end-to-end), Sweep (exhaustive
	// search), Realize (one occupancy level), and Baseline (nvcc-like).
	Realizer = core.Realizer
	// Version is one occupancy-realized binary.
	Version = core.Version
	// Candidate pairs a version with a target occupancy level.
	Candidate = core.Candidate
	// CompileResult is the compile-time tuning output.
	CompileResult = core.CompileResult
	// TuneReport is the end-to-end tuning outcome.
	TuneReport = core.TuneReport
	// Launch describes a kernel's grid and application iterations.
	Launch = core.Launch
	// LevelResult is one point of an occupancy sweep.
	LevelResult = core.LevelResult
	// Decision is one runtime tuning step's explanation (TuneReport's
	// decision log; `orion tune -explain` renders these).
	Decision = core.Decision

	// Program is a kernel: entry function plus device functions.
	Program = isa.Program
	// Device describes a simulated GPU platform.
	Device = device.Device
	// CacheConfig selects the shared/L1 split of on-chip memory.
	CacheConfig = device.CacheConfig
	// SimStats is a simulated launch's outcome.
	SimStats = sim.Stats
	// ProfileReport is a profiled run's ranked hot-spot report.
	ProfileReport = prof.Report
	// Kernel is one evaluation benchmark.
	Kernel = kernels.Kernel
	// Suite regenerates the paper's tables and figures.
	Suite = bench.Suite
	// ResultTable is a rendered experiment result.
	ResultTable = bench.Table

	// Collector gathers observability spans and metrics; attach one to
	// Realizer.Obs or Suite.Obs and export with WriteChromeTrace /
	// WriteMetricsJSON. A nil Collector disables all instrumentation.
	Collector = obs.Collector
	// MetricsRegistry is a collector's named counters/gauges/histograms.
	MetricsRegistry = obs.Registry
	// Ladder realizes one program across all occupancy levels through a
	// shared set of middle-end analyses (Realizer.NewLadder).
	Ladder = core.Ladder

	// Diagnostic is one static-analysis finding (divergent barrier,
	// shared-memory race, uninitialized read, ...; see internal/sa).
	Diagnostic = sa.Diagnostic
	// Severity ranks a diagnostic (info, warning, error).
	Severity = sa.Severity
	// LintMode selects how analysis findings gate compilation
	// (Realizer.Lint: LintStrict, LintOff).
	LintMode = core.LintMode
	// AnalysisError is the strict-mode rejection carrying the findings.
	AnalysisError = core.AnalysisError
)

// Cache configurations (paper Table 3).
const (
	SmallCache = device.SmallCache // 16 KB L1 + 48 KB shared
	LargeCache = device.LargeCache // 48 KB L1 + 16 KB shared
)

// Tuning directions (paper Section 3.3).
const (
	Increasing = core.Increasing
	Decreasing = core.Decreasing
)

// Lint modes (Realizer.Lint; the CLIs' -lint flag).
const (
	LintOff    = core.LintOff
	LintStrict = core.LintStrict
)

// Diagnostic severities.
const (
	SevInfo    = sa.SevInfo
	SevWarning = sa.SevWarning
	SevError   = sa.SevError
)

// AnalyzeKernel runs the SIMT static analyzer on a program and returns
// its findings in deterministic order: thread-variance classification of
// branches, barrier-divergence checking, shared-memory race detection
// over barrier intervals, and definite-use checks (DESIGN.md §11).
func AnalyzeKernel(p *Program) []Diagnostic { return sa.Analyze(p) }

// ParseLintMode parses a -lint flag value (strict or off).
func ParseLintMode(s string) (LintMode, error) { return core.ParseLintMode(s) }

// GTX680 returns the simulated Kepler platform.
func GTX680() *Device { return device.GTX680() }

// TeslaC2075 returns the simulated Fermi platform.
func TeslaC2075() *Device { return device.TeslaC2075() }

// Devices returns both evaluation platforms in paper order.
func Devices() []*Device { return device.Both() }

// NewRealizer returns an Orion compiler for the device and cache
// configuration, with the full optimization set enabled.
func NewRealizer(d *Device, cc CacheConfig) *Realizer { return core.NewRealizer(d, cc) }

// ParseKernel assembles OASM text into a program.
func ParseKernel(src string) (*Program, error) { return isa.Parse(src) }

// FormatKernel disassembles a program to OASM text.
func FormatKernel(p *Program) string { return isa.Format(p) }

// EncodeKernel serializes a program to the ORN1 binary format (the form
// the Orion compiler consumes and produces, like SASS in the paper).
func EncodeKernel(p *Program) []byte { return isa.Encode(p) }

// DecodeKernel parses an ORN1 binary.
func DecodeKernel(data []byte) (*Program, error) { return isa.Decode(data) }

// ValidateKernel checks structural invariants of a program.
func ValidateKernel(p *Program) error { return isa.Validate(p) }

// MaxLive computes the compile-time register-demand metric that picks the
// tuning direction (paper Section 3.3).
func MaxLive(p *Program) (int, error) { return core.MaxLive(p) }

// EncodeFat serializes a compile result into the paper's multi-version
// binary (Figure 3): every candidate version plus the tuning metadata the
// runtime needs.
func EncodeFat(cr *CompileResult) []byte { return core.EncodeFat(cr) }

// DecodeFat parses a multi-version binary; Realizer.TuneCompiled tunes the
// result without recompilation.
func DecodeFat(data []byte) (*CompileResult, error) { return core.DecodeFat(data) }

// OccupancyLevels enumerates the achievable warps-per-SM levels for a
// block size on a device.
func OccupancyLevels(d *Device, blockDim int) []int {
	return occupancy.Levels(d, blockDim)
}

// Simulate executes a compiled version at a target occupancy on the
// simulated device, recording a span (and metrics) into the collector; a
// nil collector disables instrumentation.
func Simulate(v *Version, d *Device, cc CacheConfig, targetWarps, gridWarps int, c *Collector) (*SimStats, error) {
	return v.RunAtCtx(d, cc, targetWarps, &interp.Launch{Prog: v.Prog, GridWarps: gridWarps}, c.Ctx())
}

// Profile is Simulate with the simulator-native profiler on: the
// result's Profile holds per-PC issue/stall attribution and sampled
// counter tracks (exported, via the collector, as Chrome trace counter
// tracks) and the issue logs of the first 16 warps (a per-warp
// timeline). Profiled runs always bypass the run cache.
func Profile(v *Version, d *Device, cc CacheConfig, targetWarps, gridWarps int, c *Collector) (*SimStats, error) {
	return v.ProfileCtx(d, cc, targetWarps, &interp.Launch{Prog: v.Prog, GridWarps: gridWarps}, c.Ctx())
}

// BuildProfileReport ranks a profiled run into the user-facing hot-spot
// report, resolving spill sites against the version's provenance map.
func BuildProfileReport(v *Version, d *Device, st *SimStats) *ProfileReport {
	return core.BuildProfileReport(v, d, st)
}

// Execute runs a program functionally (no timing) and returns its store
// checksum and dynamic instruction count; useful for verifying that
// transformed binaries preserve semantics.
func Execute(p *Program, gridWarps int) (checksum uint64, steps int, err error) {
	res, err := interp.Run(&interp.Launch{Prog: p, GridWarps: gridWarps}, 0, nil)
	if err != nil {
		return 0, 0, err
	}
	return res.Checksum, res.Steps, nil
}

// Prediction is the Hong & Kim MWP-CWP analytical model's output — the
// prior prediction-based approach the paper contrasts Orion's measured
// feedback against.
type Prediction = analytic.Prediction

// PredictOccupancy profiles the program functionally and predicts its
// cycles at the given occupancy with the MWP-CWP model.
func PredictOccupancy(d *Device, p *Program, activeWarpsPerSM, totalWarps int) (Prediction, error) {
	return analytic.PredictProgram(d, p, activeWarpsPerSM, totalWarps)
}

// Benchmarks returns the paper's evaluation kernels (Table 2 plus
// heartwall and matrixMul). The error reports a kernel-generator source
// that fails to assemble.
func Benchmarks() ([]*Kernel, error) { return kernels.All() }

// Benchmark returns one evaluation kernel by name.
func Benchmark(name string) (*Kernel, error) { return kernels.ByName(name) }

// NewSuite returns an experiment suite; scale 1.0 reproduces the recorded
// results, smaller values shrink the grids proportionally.
func NewSuite(scale float64) *Suite { return bench.New(scale) }

// NewCollector returns an enabled observability collector (see
// Realizer.Obs and Suite.Obs; DESIGN.md §8 documents the span model and
// export formats).
func NewCollector() *Collector { return obs.New() }
