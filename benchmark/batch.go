package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/isa"
	"repro/internal/verify"
)

// platform is one device and cache configuration a program is compiled for.
type platform struct {
	dev   *device.Device
	cache device.CacheConfig
}

func (p platform) String() string { return p.dev.Name + "/" + p.cache.String() }

// batch is the closed-world workloads that call core directly:
// compile_cold, compile_opt_cold, tune_cold and sweep_cold. An operation
// takes one program's bytes through decode and one core entry point on one
// platform, with the process-wide memo caches dropped first, so every
// operation pays the whole pipeline.
type batch struct {
	kind      string  // "compile", "tune" or "sweep"
	opt       bool    // realizer with Opt on and TV strict
	ins       []input // the programs the operations run on
	all       []input // programs(seed), which the layer replay uses
	platforms []platform

	// Output of each operation: the latest pass's, and a signature of the
	// first pass's that every later pass must reproduce.
	fats    [][]byte
	reports []*core.TuneReport
	sweeps  [][]core.LevelResult
	decoded []*isa.Program
	sigs    []string
}

func (w *batch) setUp(cfg config) error {
	ins, err := programs(cfg.seed, cfg.sizes.Generated, cfg.sizes.GridScale)
	if err != nil {
		return err
	}
	w.all = ins
	w.platforms = []platform{{device.GTX680(), device.SmallCache}}
	switch w.kind {
	case "compile":
		w.platforms = nil
		for _, d := range []*device.Device{device.GTX680(), device.TeslaC2075()} {
			for _, cc := range []device.CacheConfig{device.SmallCache, device.LargeCache} {
				w.platforms = append(w.platforms, platform{d, cc})
			}
		}
	case "sweep":
		// An exhaustive sweep costs about twice a tune, so it takes every
		// second program: with all of them, fewer than three passes would
		// fit in a run.
		var half []input
		for i := 1; i < len(ins); i += 2 {
			half = append(half, ins[i])
		}
		ins = half
	}
	w.ins = ins
	n := w.ops()
	w.fats = make([][]byte, n)
	w.reports = make([]*core.TuneReport, n)
	w.sweeps = make([][]core.LevelResult, n)
	w.decoded = make([]*isa.Program, n)
	w.sigs = make([]string, n)
	return nil
}

func (w *batch) ops() int { return len(w.ins) * len(w.platforms) }

func (w *batch) at(i int) (input, platform) {
	return w.ins[i%len(w.ins)], w.platforms[i/len(w.ins)]
}

func (w *batch) opName(i int) string {
	in, pl := w.at(i)
	if len(w.platforms) == 1 {
		return in.name
	}
	return in.name + "@" + pl.String()
}

func (w *batch) beginPass() {}

func (w *batch) beginOp(int) {
	core.ResetRealizeCache()
	core.ResetRunCache()
}

func (w *batch) realizer(pl platform) *core.Realizer {
	rz := core.NewRealizer(pl.dev, pl.cache)
	rz.Opt = w.opt
	return rz
}

// lay times one call into a layer as a child span of parent.
func lay(tr *tracer, name, op string, parent int, fn func()) {
	id := tr.begin(name, op, parent)
	fn()
	tr.end(id)
}

func (w *batch) op(i int, tr *tracer, parent int) error {
	in, pl := w.at(i)
	name := w.opName(i)
	var p *isa.Program
	var err error
	lay(tr, "isa.decode", name, parent, func() { p, err = isa.Decode(in.bin) })
	if err != nil {
		return err
	}
	w.decoded[i] = p
	rz := w.realizer(pl)
	switch w.kind {
	case "compile":
		lay(tr, "isa.validate", name, parent, func() { err = isa.Validate(p) })
		if err != nil {
			return err
		}
		var cr *core.CompileResult
		lay(tr, "core.compile", name, parent, func() { cr, err = rz.Compile(p, true) })
		if err != nil {
			return err
		}
		lay(tr, "core.encodefat", name, parent, func() { w.fats[i] = core.EncodeFat(cr) })
	case "tune":
		lay(tr, "core.tune", name, parent, func() {
			w.reports[i], err = rz.Tune(p, core.Launch{GridWarps: in.grid, Iterations: in.iters})
		})
	case "sweep":
		lay(tr, "core.sweep", name, parent, func() { w.sweeps[i], err = rz.Sweep(p, in.grid) })
	}
	return err
}

// signature condenses an operation's output to what must repeat from pass
// to pass: the fat binary's bytes, or every simulated count.
func (w *batch) signature(i int) string {
	switch w.kind {
	case "compile":
		return fmt.Sprintf("%x", sha256.Sum256(w.fats[i]))
	case "tune":
		r := w.reports[i]
		return fmt.Sprintf("warps=%d iters=%d cycles=%d checksum=%x", r.Chosen.TargetWarps, r.TuneIterations, r.TotalCycles, r.Checksum)
	default:
		var b bytes.Buffer
		for _, l := range w.sweeps[i] {
			fmt.Fprintf(&b, "%d:%d:%x ", l.TargetWarps, l.Stats.Cycles, l.Stats.Checksum)
		}
		return b.String()
	}
}

func (w *batch) afterOp(i int) error {
	sig := w.signature(i)
	if w.sigs[i] == "" {
		w.sigs[i] = sig
	} else if w.sigs[i] != sig {
		return fmt.Errorf("output differs from the first pass: %s, first %s", sig, w.sigs[i])
	}
	return nil
}

// selected is the kernel a finished operation would ship for program i on
// the first platform, the launches it ran and the simulated cycles they
// took; for a sweep that is the best level, run once.
func (w *batch) selected(i int) (v *core.Version, warps int, cycles uint64, launches int, err error) {
	in, pl := w.at(i)
	switch w.kind {
	case "sweep":
		best := w.sweeps[i][0]
		for _, l := range w.sweeps[i] {
			if l.Stats.Cycles < best.Stats.Cycles {
				best = l
			}
		}
		return best.Version, best.TargetWarps, best.Stats.Cycles, 1, nil
	case "compile":
		// The deployment model: decode the shipped multi-version binary
		// and let the runtime tuner pick on the program's launch.
		cr, err := core.DecodeFat(w.fats[i])
		if err != nil {
			return nil, 0, 0, 0, err
		}
		rep, err := core.NewRealizer(pl.dev, pl.cache).TuneCompiled(cr, core.Launch{GridWarps: in.grid, Iterations: in.iters})
		if err != nil {
			return nil, 0, 0, 0, err
		}
		w.reports[i] = rep
	}
	rep := w.reports[i]
	launches = len(rep.History)
	if rep.KernelSplit {
		launches = 1 // the pieces together cover the grid once
	}
	return rep.Chosen.Version, rep.Chosen.TargetWarps, rep.TotalCycles, launches, nil
}

// check verifies, for every program on the first platform, that the
// selected kernel computes what the input computes (the differential
// oracle on the functional interpreter, which the compiler under test does
// not share), and measures its simulated speedup over the nvcc-like
// baseline. The geomean is over the suite kernels only: their launches do
// not depend on the seed, so the number repeats exactly and any movement
// is the compiler's or the tuner's.
func (w *batch) check(t *tally, perOpMS []float64) outcome {
	var out outcome
	var suite []float64
	for i := range w.ins { // first platform
		in, pl := w.at(i)
		row := programRow{Program: w.opName(i), OpMS: perOpMS[i]}
		if w.fats[i] == nil && w.reports[i] == nil && w.sweeps[i] == nil {
			out.programs = append(out.programs, row)
			continue // the operation failed and is already counted
		}
		if w.kind == "compile" && in.kernel == nil {
			// Tuning every shipped binary would double the run; the suite
			// kernels carry the quality metric, the rest must decode.
			_, err := core.DecodeFat(w.fats[i])
			t.expect(err == nil, "%s: shipped binary does not decode: %v", in.name, err)
			out.programs = append(out.programs, row)
			continue
		}
		v, warps, cycles, launches, err := w.selected(i)
		if err != nil {
			t.fail("%s: tuning the shipped binary: %v", in.name, err)
			continue
		}
		vs := verify.Differential(w.decoded[i], v.Prog, 0, 0)
		t.expect(len(vs) == 0, "%s: selected kernel differs from its input: %v", in.name, vs)
		_, base, err := core.NewRealizer(pl.dev, pl.cache).Baseline(w.decoded[i], in.grid)
		if err != nil {
			t.fail("%s: baseline: %v", in.name, err)
			continue
		}
		row.ChosenWarps, row.TunedCycles = warps, cycles
		row.Speedup = float64(base.Cycles) * float64(launches) / float64(cycles)
		if in.kernel != nil {
			suite = append(suite, row.Speedup)
		}
		out.programs = append(out.programs, row)
	}
	for i := len(w.ins); i < w.ops(); i++ {
		out.programs = append(out.programs, programRow{Program: w.opName(i), OpMS: perOpMS[i]})
		if w.fats[i] != nil {
			_, err := core.DecodeFat(w.fats[i])
			t.expect(err == nil, "%s: shipped binary does not decode: %v", w.opName(i), err)
		}
	}
	out.speedup = geomean(suite)
	return out
}

func (w *batch) probeInputs() []input { return w.all }
