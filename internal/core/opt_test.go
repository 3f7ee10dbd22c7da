package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/interp"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/occupancy"
	"repro/internal/opt"
	"repro/internal/par"
	"repro/internal/sa"
	"repro/internal/sim"
	"repro/internal/verify"
)

// optTestGrid is a suite kernel's paper launch at a sixteenth of its grid
// (the scale the cached suite runs at), in whole blocks and at least four.
func optTestGrid(k *kernels.Kernel) int {
	wpb := k.Prog.BlockDim / 32
	return max(4*wpb, k.GridWarps/16/wpb*wpb)
}

// TestOptSweepSuiteBothDevices is the middle end's end-to-end acceptance
// test: a full occupancy sweep of every suite kernel on both paper devices
// with and without it. The verifier and differential oracle run inside
// every realization (NewRealizer defaults), so each level doubles as a
// semantics check of the scheduled binaries. On top of that it asserts
// what the pass is kept for, in simulated cycles rather than max-live:
// every level feasible without the middle end stays feasible with it, per
// kernel and device the best sweep level with it on is within 2 % of the
// best with it off, and across the suite the geomean is no loss.
func TestOptSweepSuiteBothDevices(t *testing.T) {
	ks, err := kernels.All()
	if err != nil {
		t.Fatal(err)
	}
	devs := device.Both()
	ratios := make([]float64, len(devs)*len(ks)) // best cycles off / on; 0 = pair failed
	par.ForEach(0, len(ratios), func(i int) {
		d, k := devs[i/len(ks)], ks[i%len(ks)]
		off := NewRealizer(d, device.SmallCache)
		on := NewRealizer(d, device.SmallCache)
		on.Opt = true
		loff, lon := off.NewLadder(k.Prog), on.NewLadder(k.Prog)
		// best folds one level into a running minimum of simulated cycles.
		best := func(cur uint64, v *Version, lvl int) uint64 {
			st, err := v.RunAt(d, device.SmallCache, lvl, &interp.Launch{Prog: v.Prog, GridWarps: optTestGrid(k)})
			if err != nil {
				t.Errorf("%s %s lvl=%d: %v", d.Name, k.Name, lvl, err)
				return cur
			}
			if cur == 0 || st.Cycles < cur {
				return st.Cycles
			}
			return cur
		}
		var bestOff, bestOn uint64
		for _, lvl := range occupancy.Levels(d, k.Prog.BlockDim) {
			voff, eoff := loff.Realize(lvl)
			von, eon := lon.Realize(lvl)
			if eoff == nil {
				bestOff = best(bestOff, voff, lvl)
			}
			if eon == nil {
				bestOn = best(bestOn, von, lvl)
				continue
			}
			var inf *ErrInfeasible
			if !errors.As(eon, &inf) {
				t.Errorf("%s %s lvl=%d with opt: %v", d.Name, k.Name, lvl, eon)
			} else if eoff == nil {
				t.Errorf("%s %s lvl=%d: feasible without opt, infeasible with: %v", d.Name, k.Name, lvl, eon)
			}
		}
		if bestOff == 0 || bestOn == 0 {
			t.Errorf("%s %s: no feasible level (best cycles off %d, on %d)", d.Name, k.Name, bestOff, bestOn)
			return
		}
		ratios[i] = float64(bestOff) / float64(bestOn)
		if ratios[i] < 0.98 {
			t.Errorf("%s %s: best level %d cycles with opt vs %d without (%.4fx, want >= 0.98)",
				d.Name, k.Name, bestOn, bestOff, ratios[i])
		}
	})
	logSum := 0.0
	for _, r := range ratios {
		if r == 0 {
			return // already reported
		}
		logSum += math.Log(r)
	}
	g := math.Exp(logSum / float64(len(ratios)))
	t.Logf("suite geomean of sweep-best cycles off/on = %.5f over %d kernel x device pairs", g, len(ratios))
	if g < 1.0 {
		t.Errorf("suite geomean %.5f: the middle end loses cycles, want >= 1.0", g)
	}
}

// TestOptLadderOrderIndependent pins the per-function middle-end entry:
// the scheduled body is built once per ladder, whichever level asks
// first, so levels realized ascending, descending and concurrently on
// fresh ladders must yield fingerprint-identical versions.
func TestOptLadderOrderIndependent(t *testing.T) {
	for _, name := range []string{"hotspot", "cfd", "recursiveGaussian"} {
		k, err := kernels.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range device.Both() {
			levels := occupancy.Levels(d, k.Prog.BlockDim)
			sweep := func(visit func(realize func(i int))) []isa.Fingerprint {
				r := NewCaches().NewRealizer(d, device.SmallCache) // every ladder realizes for itself
				r.Opt = true
				lad := r.NewLadder(k.Prog)
				fps := make([]isa.Fingerprint, len(levels))
				visit(func(i int) {
					if v, err := lad.Realize(levels[i]); err == nil {
						fps[i] = fingerprintOf(v.Prog)
					}
				})
				return fps
			}
			asc := sweep(func(realize func(int)) {
				for i := range levels {
					realize(i)
				}
			})
			desc := sweep(func(realize func(int)) {
				for i := len(levels) - 1; i >= 0; i-- {
					realize(i)
				}
			})
			conc := sweep(func(realize func(int)) { par.ForEach(0, len(levels), realize) })
			for i, lvl := range levels {
				if asc[i] != desc[i] || asc[i] != conc[i] {
					t.Errorf("%s on %s lvl=%d: version depends on realization order", name, d.Name, lvl)
				}
			}
		}
	}
}

// TestOptTransformedSaClean gates every transformed (still unallocated)
// suite function through the static analyzer: the passes may not
// introduce error-severity findings, and in particular no dead stores —
// the SA-DEAD-STORE exemption covers only Allocated functions (the
// spiller's residue), which transformed middle-end output is not.
func TestOptTransformedSaClean(t *testing.T) {
	ks, err := kernels.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ks {
		for _, budget := range []int{8, 16, 32} {
			np := k.Prog.Clone()
			changed := false
			for fi, f := range np.Funcs {
				nf, st, err := opt.Run(f, budget)
				if err != nil {
					t.Fatalf("%s fn %d budget=%d: %v", k.Name, fi, budget, err)
				}
				np.Funcs[fi] = nf
				changed = changed || st.Changed
			}
			if !changed {
				continue
			}
			if err := isa.Validate(np); err != nil {
				t.Errorf("%s budget=%d: %v", k.Name, budget, err)
				continue
			}
			for _, diag := range sa.Analyze(np) {
				if diag.Sev == sa.SevError {
					t.Errorf("%s budget=%d: %s", k.Name, budget, diag)
				}
			}
		}
	}
}

// TestOptCrossBackendSuite runs opt-transformed realized binaries through
// both simulator backends: the compiled executor and the interpreter must
// agree on the full Stats for the transformed code exactly as they do for
// baseline output.
func TestOptCrossBackendSuite(t *testing.T) {
	for _, name := range []string{"hotspot", "heartwall", "dxtc"} {
		k, err := kernels.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range device.Both() {
			r := NewRealizer(d, device.SmallCache)
			r.Opt = true
			lad := r.NewLadder(k.Prog)
			var v *Version
			for _, lvl := range occupancy.Levels(d, k.Prog.BlockDim) {
				if got, err := lad.Realize(lvl); err == nil {
					v = got // keep the highest feasible level (most spill pressure)
				}
			}
			if v == nil {
				t.Fatalf("%s on %s: no feasible level", name, d.Name)
			}
			cfg := sim.Config{
				Device:         d,
				Cache:          device.SmallCache,
				BlocksPerSM:    v.Natural.ActiveBlocks,
				RegsPerThread:  v.RegsPerThread,
				SharedPerBlock: v.SharedPerBlock,
			}
			lc := &interp.Launch{Prog: v.Prog, GridWarps: 64}
			if vs := verify.CrossBackend(cfg, lc); vs != nil {
				t.Errorf("%s on %s: %s: %s", name, d.Name, vs[0].Invariant, vs[0].Detail)
			}
		}
	}
}
