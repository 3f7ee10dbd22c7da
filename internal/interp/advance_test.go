package interp

import (
	"fmt"
	"os"
	"reflect"
	"slices"
	"testing"

	"repro/internal/fuzzcorpus"
	"repro/internal/isa"
	"repro/internal/kernels"
)

// advanceMatchesStep runs every warp of a launch twice — once through
// Step (Peek, then commit), once through the event-free Advance — and
// requires the two executions to be indistinguishable: the same errors at
// the same step, and identical register files, fragments, step counts,
// store checksums and store counts when the warp stops. For one-lane
// warps it also checks that the store sink delivers exactly the
// [addr, word...] records a Peek/ReadAbsReg observer reconstructs.
func advanceMatchesStep(t *testing.T, p *isa.Program, gridWarps int) {
	t.Helper()
	layout, err := NewLayout(p)
	if err != nil {
		t.Fatalf("NewLayout: %v", err)
	}
	const limit = 200_000
	lc := &Launch{Prog: p, GridWarps: gridWarps}
	wpb := lc.WarpsPerBlock()
	sharedWords := (p.SharedBytes + 3) / 4
	var sharedStep, sharedAdv []uint32
	for wi := 0; wi < gridWarps; wi++ {
		if wi%wpb == 0 && sharedWords > 0 {
			sharedStep = make([]uint32, sharedWords)
			sharedAdv = make([]uint32, sharedWords)
		}
		a, errA := NewWarp(lc, layout, wi, sharedStep)
		b, errB := NewWarp(lc, layout, wi, sharedAdv)
		if errA != nil || errB != nil {
			return // oversized frame, or a lane-variant program with calls
		}
		var peeked, sunk []uint32
		if a.lanes == 1 {
			b.StoreSink = func(addr uint32, words []uint32) {
				sunk = append(append(sunk, addr), words...)
			}
		}
		for n := 0; n < limit && !a.Done(); n++ {
			ev := a.Peek()
			if a.lanes == 1 && ev.Kind == KindStore && ev.Space == SpaceGlobal {
				peeked = append(peeked, ev.Addr)
				for k := 0; k < ev.Instr.W(); k++ {
					peeked = append(peeked, a.ReadAbsReg(int(ev.AbsSrc[1])+k))
				}
			}
			_, errA := a.Step()
			errB := b.Advance()
			if fmt.Sprint(errA) != fmt.Sprint(errB) {
				t.Fatalf("%s warp %d step %d: Step error %v, Advance error %v", p.Name, wi, n, errA, errB)
			}
			if errA != nil {
				break
			}
		}
		if a.Done() != b.Done() || a.Steps != b.Steps || a.Checksum != b.Checksum || a.StoreCnt != b.StoreCnt {
			t.Fatalf("%s warp %d: Step (done %v, %d, %#x, %d) vs Advance (done %v, %d, %#x, %d)", p.Name, wi,
				a.Done(), a.Steps, a.Checksum, a.StoreCnt, b.Done(), b.Steps, b.Checksum, b.StoreCnt)
		}
		if !slices.Equal(a.regs, b.regs) || !slices.Equal(a.frags, b.frags) {
			t.Fatalf("%s warp %d: register files or fragments differ after Advance", p.Name, wi)
		}
		if !reflect.DeepEqual(peeked, sunk) {
			t.Fatalf("%s warp %d: store sink saw %d words, Peek observer %d (or contents differ)",
				p.Name, wi, len(sunk), len(peeked))
		}
	}
}

// TestAdvanceMatchesStep holds the event-free path to Step on the suite
// kernels, the seeded defect kernels and both checked-in fuzz corpora.
// The lane-aware and call/spill-heavy programs of compile_test.go go
// through the same check from lockstepProg.
func TestAdvanceMatchesStep(t *testing.T) {
	ks, err := kernels.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ks {
		advanceMatchesStep(t, k.Prog, 2*k.Prog.BlockDim/32)
	}
	ds, err := kernels.Defects()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		advanceMatchesStep(t, d.Prog, 2*d.Prog.BlockDim/32)
	}
	seen := 0
	for _, dir := range []string{
		"../isa/testdata/fuzz/FuzzDecode",
		"../core/testdata/fuzz/FuzzRealize",
	} {
		inputs, err := fuzzcorpus.Read(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range inputs {
			p, err := isa.Decode(in.Data)
			if err != nil || isa.Validate(p) != nil {
				continue
			}
			seen++
			advanceMatchesStep(t, p, max(2, 2*p.BlockDim/32))
		}
	}
	t.Logf("%d suite kernels, %d defect kernels, %d corpus programs", len(ks), len(ds), seen)
}

// BenchmarkWarpStep measures the reference executor's instruction rate,
// one warp per iteration, through Step (an Event built per instruction)
// and through the event-free Advance, at both lane counts: hotspot runs
// one lane, the lane-variant transpose_simt example all 32.
func BenchmarkWarpStep(b *testing.B) {
	k, err := kernels.ByName("hotspot")
	if err != nil {
		b.Fatal(err)
	}
	src, err := os.ReadFile("../../examples/kernels/transpose_simt.oasm")
	if err != nil {
		b.Fatal(err)
	}
	transpose, err := isa.Parse(string(src))
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		prog *isa.Program
	}{{"lanes=1", k.Prog}, {"lanes=32", transpose}} {
		layout, err := NewLayout(c.prog)
		if err != nil {
			b.Fatal(err)
		}
		lc := &Launch{Prog: c.prog, GridWarps: 1}
		shared := make([]uint32, (c.prog.SharedBytes+3)/4)
		run := func(b *testing.B, step func(w *Warp) error) {
			b.ReportAllocs()
			instrs := 0
			for i := 0; i < b.N; i++ {
				w, err := NewWarp(lc, layout, 0, shared)
				if err != nil {
					b.Fatal(err)
				}
				for !w.Done() {
					if err := step(w); err != nil {
						b.Fatal(err)
					}
				}
				instrs += w.Steps
			}
			b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "Minstr/s")
		}
		b.Run(c.name+"/Step", func(b *testing.B) {
			run(b, func(w *Warp) error { _, err := w.Step(); return err })
		})
		b.Run(c.name+"/Advance", func(b *testing.B) {
			run(b, (*Warp).Advance)
		})
	}
}
