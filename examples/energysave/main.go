// Downward tuning (paper Figures 12 and 13): for kernels with low
// register pressure the hardware already runs at maximum occupancy, and
// the only useful direction is down — fewer resident warps at (nearly)
// the same speed, saving registers and energy. This example tunes srad on
// the simulated Tesla C2075 and reports the savings.
//
//	go run ./examples/energysave
package main

import (
	"fmt"
	"log"

	orion "repro"
)

func main() {
	k, err := orion.Benchmark("srad")
	if err != nil {
		log.Fatal(err)
	}
	dev := orion.TeslaC2075()
	r := orion.NewRealizer(dev, orion.SmallCache)
	grid := 1024

	ml, err := orion.MaxLive(k.Prog)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: max-live %d (< threshold %d on %s) -> tune occupancy down\n\n",
		k.Name, ml, dev.RegsPerSM/dev.MaxThreadsPerSM, dev.Name)

	baseVer, baseStats, err := r.Baseline(k.Prog, grid)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("nvcc baseline: occupancy %.3f (%d warps/SM), %d cycles, energy %.0f (register file %.0f)\n",
		baseVer.Occupancy(dev), baseVer.Natural.ActiveWarps,
		baseStats.Cycles, baseStats.Energy, baseStats.EnergyRF)

	rep, err := r.Tune(k.Prog, orion.Launch{GridWarps: grid, Iterations: k.Iterations})
	if err != nil {
		log.Fatal(err)
	}
	sel := rep.Chosen
	st, err := orion.Simulate(sel.Version, dev, orion.SmallCache, sel.TargetWarps, grid, nil)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Orion selected: occupancy %.3f (%d warps/SM) after %d tuning iterations\n",
		sel.Occupancy(dev), sel.TargetWarps, rep.TuneIterations)
	fmt.Printf("  runtime: %d cycles (%+.2f%% vs baseline)\n",
		st.Cycles, (float64(st.Cycles)/float64(baseStats.Cycles)-1)*100)
	warps := sel.TargetWarps
	if n := sel.Version.Natural.ActiveWarps; n < warps {
		warps = n
	}
	regRatio := float64(warps*sel.Version.RegsPerThread) /
		float64(baseVer.Natural.ActiveWarps*baseVer.RegsPerThread)
	fmt.Printf("  register file in use: %.1f%% of baseline (%.1f%% saved)\n",
		regRatio*100, (1-regRatio)*100)
	fmt.Printf("  energy: %.0f (%.1f%% saved; register-file component %.1f%% saved)\n",
		st.Energy, (1-st.Energy/baseStats.Energy)*100,
		(1-st.EnergyRF/baseStats.EnergyRF)*100)
}
