package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"strconv"

	"repro/internal/bench"
	"repro/internal/core"
)

// suiteRun is suite_cached: the paper's twelve experiments in order, one
// operation each, with the memo caches dropped at the start of a pass and
// left on within it, so that the experiments share realized versions and
// simulated launches the way `orion-bench -exp all` does. Its inputs are
// the paper's kernels and do not depend on the seed.
type suiteRun struct {
	scale float64
	ins   []input
	exps  []bench.Experiment
	last  []*bench.Table // the latest pass's tables
	sigs  []string       // hash of each table as the first pass rendered it
}

func (w *suiteRun) setUp(cfg config) error {
	w.scale = cfg.sizes.SuiteScale
	ins, err := programs(cfg.seed, 0, cfg.sizes.GridScale)
	if err != nil {
		return err
	}
	w.ins = ins
	w.exps = bench.New(w.scale).Experiments()
	w.last = make([]*bench.Table, len(w.exps))
	w.sigs = make([]string, len(w.exps))
	return nil
}

func (w *suiteRun) ops() int            { return len(w.exps) }
func (w *suiteRun) opName(i int) string { return w.exps[i].ID }
func (w *suiteRun) beginOp(int)         {}

func (w *suiteRun) beginPass() {
	core.ResetRealizeCache()
	core.ResetRunCache()
	s := bench.New(w.scale)
	s.Parallel = runtime.GOMAXPROCS(0)
	w.exps = s.Experiments()
}

func (w *suiteRun) op(i int, tr *tracer, parent int) error {
	var err error
	lay(tr, "bench."+w.exps[i].ID, w.exps[i].ID, parent, func() { w.last[i], err = w.exps[i].Run() })
	return err
}

func (w *suiteRun) afterOp(i int) error {
	sig := fmt.Sprintf("%x", sha256.Sum256([]byte(w.last[i].String())))
	if w.sigs[i] == "" {
		w.sigs[i] = sig
	} else if w.sigs[i] != sig {
		return fmt.Errorf("table differs from the first pass")
	}
	return nil
}

// check reads the suite's own answer to the quality question: the
// Orion-Select column of its Figure 11 table, the speedup over the
// nvcc-like baseline with tuning overhead included.
func (w *suiteRun) check(t *tally, perOpMS []float64) outcome {
	var out outcome
	h := sha256.New()
	for i, e := range w.exps {
		if w.last[i] != nil {
			h.Write([]byte(w.last[i].String()))
		}
		out.programs = append(out.programs, programRow{Program: e.ID, OpMS: perOpMS[i]})
	}
	out.tablesSHA256 = fmt.Sprintf("%x", h.Sum(nil))

	var ratios []float64
	for _, tab := range w.last {
		if tab == nil || tab.ID != "fig11" {
			continue
		}
		for col, name := range tab.Header {
			if name != "Orion-Select" {
				continue
			}
			for _, row := range tab.Rows {
				if v, err := strconv.ParseFloat(row[col], 64); err == nil {
					ratios = append(ratios, v)
				}
			}
		}
	}
	t.expect(len(ratios) == 14, "fig11: read %d Orion-Select speedups, want 14 (7 kernels on 2 devices)", len(ratios))
	out.speedup = geomean(ratios)
	return out
}

func (w *suiteRun) probeInputs() []input { return w.ins }
