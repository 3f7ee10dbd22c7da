// Benchmarks regenerating the paper's tables and figures (one per
// experiment, at a reduced grid scale so `go test -bench=.` stays
// tractable; `cmd/orion-bench -scale 1` produces the recorded full-scale
// artifacts), plus the simulator's host throughput. Compiler-stage and
// executor timings are the benchmark's layer replay (benchmark/README.md).
package orion_test

import (
	"os"
	"testing"

	orion "repro"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/interp"
	"repro/internal/kernels"
	"repro/internal/sim"
)

// benchScale keeps experiment benchmarks test-sized.
const benchScale = 0.0625

func runExperiment(b *testing.B, id string) {
	b.Helper()
	s := orion.NewSuite(benchScale)
	e, err := s.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig01 regenerates Figure 1 (imageDenoising vs occupancy,
// GTX680).
func BenchmarkFig01(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkFig02 regenerates Figure 2 (matrixMul vs occupancy, C2075).
func BenchmarkFig02(b *testing.B) { runExperiment(b, "fig2") }

// BenchmarkFig05 regenerates Figure 5 (inter-procedural ablations).
func BenchmarkFig05(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFig10 regenerates Figure 10 (srad vs occupancy, C2075).
func BenchmarkFig10(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFig11 regenerates Figure 11 (speedup over nvcc, both devices).
func BenchmarkFig11(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkFig12 regenerates Figure 12 (downward tuning).
func BenchmarkFig12(b *testing.B) { runExperiment(b, "fig12") }

// BenchmarkFig13 regenerates Figure 13 (energy, C2075).
func BenchmarkFig13(b *testing.B) { runExperiment(b, "fig13") }

// BenchmarkFig14 regenerates Figure 14 (gaussian/streamcluster, C2075).
func BenchmarkFig14(b *testing.B) { runExperiment(b, "fig14") }

// BenchmarkFig15 regenerates Figure 15 (backprop/bfs, GTX680).
func BenchmarkFig15(b *testing.B) { runExperiment(b, "fig15") }

// BenchmarkTable2 regenerates Table 2 (benchmark characteristics).
func BenchmarkTable2(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkTable3 regenerates Table 3 (cache configurations).
func BenchmarkTable3(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkSuiteEndToEnd regenerates every experiment from cold memo
// caches each iteration. It stays because README.md and DESIGN.md §8 name
// it as the instrument of recorded measurements; the benchmark's
// suite_cached workload reports the same pass under a fixed configuration.
func BenchmarkSuiteEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		core.ResetRealizeCache()
		core.ResetRunCache()
		s := orion.NewSuite(benchScale)
		for _, e := range s.Experiments() {
			if _, err := e.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSimulator measures the timing simulator's throughput
// (instructions per second and nanoseconds per instruction as custom
// metrics, and allocations per launch) on a warp-scalar kernel (srad, the
// compiled executor) and on a lane-variant one (transpose_simt, the
// reference lane-accurate executor). srad runs twice: on TeslaC2075 at a
// 256-warp grid (about 18 resident warps per SM), and at full GTX680
// residency (64 warps per SM, two waves), where the tuner's widest
// GTX680 candidates run. It calls sim.Simulate with a fixed residency: RunAt
// would answer every iteration after the first from core's run cache.
func BenchmarkSimulator(b *testing.B) {
	k, err := kernels.ByName("srad")
	if err != nil {
		b.Fatal(err)
	}
	d := device.TeslaC2075()
	v, err := core.NewRealizer(d, device.SmallCache).Realize(k.Prog, 48)
	if err != nil {
		b.Fatal(err)
	}
	kepler := device.GTX680()
	full, err := core.NewRealizer(kepler, device.SmallCache).Realize(k.Prog, kepler.MaxWarpsPerSM)
	if err != nil {
		b.Fatal(err)
	}
	fullBlocks := kepler.MaxWarpsPerSM / (full.Prog.BlockDim / kepler.WarpSize)
	src, err := os.ReadFile("examples/kernels/transpose_simt.oasm")
	if err != nil {
		b.Fatal(err)
	}
	transpose, err := orion.ParseKernel(string(src))
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		cfg  sim.Config
		lc   *interp.Launch
	}{
		{"srad", sim.Config{
			Device:         d,
			Cache:          device.SmallCache,
			BlocksPerSM:    min(v.Natural.ActiveBlocks, 48/(v.Prog.BlockDim/d.WarpSize)),
			RegsPerThread:  v.RegsPerThread,
			SharedPerBlock: v.SharedPerBlock,
		}, &interp.Launch{Prog: v.Prog, GridWarps: 256}},
		{"srad_gtx680_full", sim.Config{
			Device:         kepler,
			Cache:          device.SmallCache,
			BlocksPerSM:    fullBlocks,
			RegsPerThread:  full.RegsPerThread,
			SharedPerBlock: full.SharedPerBlock,
		}, &interp.Launch{Prog: full.Prog, GridWarps: 2 * kepler.MaxWarpsPerSM * kepler.SMs}},
		{"transpose_simt", sim.Config{
			Device: kepler, Cache: device.SmallCache, BlocksPerSM: 4, RegsPerThread: 20,
		}, &interp.Launch{Prog: transpose, GridWarps: 4096}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var instrs uint64
			for i := 0; i < b.N; i++ {
				st, err := sim.Simulate(bc.cfg, bc.lc)
				if err != nil {
					b.Fatal(err)
				}
				instrs += st.Instructions
			}
			b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
		})
	}
}
