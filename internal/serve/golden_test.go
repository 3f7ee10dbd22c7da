package serve

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/kernels"
	"repro/internal/sim"
)

var updateTuneGolden = flag.Bool("update-tune-golden", false,
	"rewrite testdata/tune_golden.txt from this build's pipeline")

const tuneGoldenFile = "testdata/tune_golden.txt"

// TestTuneReportGolden pins the canonical tune report — the bytes the
// daemon stores and `orion tune -json` writes — for every benchmark kernel
// on both devices under the three shapes a launch can take: application
// iterations (the paper's count at grid 512), a single invocation too small
// to split (static selection), and a single invocation large enough for
// kernel splitting; plus the IterationGrids launches (the bfs shape with
// unequal grids, and lists of length one). The digests were generated at
// 8949cdd, before the Fig. 9 loop was made one; a change to how a launch is
// planned, run or fed back must reproduce every one of them. Regenerate
// (only when the report itself is meant to change) with
//
//	go test ./internal/serve -run TestTuneReportGolden -update-tune-golden
func TestTuneReportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("tunes 87 launches")
	}
	type launchCase struct {
		tag string
		lc  func(k *kernels.Kernel) core.Launch
	}
	shapes := []launchCase{
		{"iters", func(k *kernels.Kernel) core.Launch {
			return core.Launch{GridWarps: 512, Iterations: k.Iterations}
		}},
		{"static", func(*kernels.Kernel) core.Launch { return core.Launch{GridWarps: 64, Iterations: 1} }},
		{"split", func(*kernels.Kernel) core.Launch { return core.Launch{GridWarps: 2048, Iterations: 1} }},
	}
	var got []string
	tune := func(name string, k *kernels.Kernel, dev *device.Device, lc core.Launch) {
		rz := core.NewRealizer(dev, device.SmallCache)
		canTune := rz.CanTune(k.Prog, lc)
		rep, err := rz.Tune(k.Prog, lc)
		if err != nil {
			got = append(got, fmt.Sprintf("%s error: %v", name, err))
			return
		}
		p := Params{
			Kernel:  k.Prog.Name,
			Device:  dev.Name,
			Cache:   device.SmallCache.String(),
			Backend: sim.DefaultBackend().String(),
			Grid:    lc.GridWarps,
			Iters:   lc.Iterations,
			Lint:    core.LintStrict.String(),
			Verify:  true,
		}
		sum := sha256.Sum256(EncodeReport(BuildReport(p, k.Prog, dev, canTune, rep)))
		got = append(got, fmt.Sprintf("%s split=%v runs=%d %x", name, rep.KernelSplit, len(rep.History), sum))
	}
	devs := []*device.Device{device.GTX680(), device.TeslaC2075()}
	all, err := kernels.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range all {
		for _, dev := range devs {
			for _, s := range shapes {
				tune(fmt.Sprintf("%s/%s/%s", k.Name, dev.Name, s.tag), k, dev, s.lc(k))
			}
		}
	}
	bfs, err := kernels.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	// Frontier growth then collapse: every iteration has its own grid.
	tune("bfs/GTX680/grids", bfs, devs[0], core.Launch{IterationGrids: []int{64, 256, 1024, 512, 896, 128, 768, 320}})
	// One entry is one invocation whatever GridWarps/Iterations say: its
	// grid alone decides between splitting and static selection.
	tune("bfs/GTX680/grids1-split", bfs, devs[0], core.Launch{GridWarps: 64, Iterations: 8, IterationGrids: []int{2048}})
	tune("bfs/GTX680/grids1-static", bfs, devs[0], core.Launch{GridWarps: 2048, Iterations: 8, IterationGrids: []int{64}})

	if *updateTuneGolden {
		if err := os.WriteFile(tuneGoldenFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), tuneGoldenFile)
		return
	}
	data, err := os.ReadFile(tuneGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(want) != len(got) {
		t.Fatalf("%s holds %d digests, the case list has %d", tuneGoldenFile, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("got %s, golden %s", got[i], want[i])
		}
	}
}
