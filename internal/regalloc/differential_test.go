package regalloc

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fuzzcorpus"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/kernels"
)

// diffAllocate requires allocate and the reference to agree on one
// coloring problem: the same Result (Color, Spilled order, FrameSlots) or
// the same error text. It returns the new routine's result.
func diffAllocate(t *testing.T, what string, v *ir.Vars, g *Graph, cm *CostModel, wdeg []int, c int, sc *Scratch, work *refWork) *Result {
	t.Helper()
	got, gotErr := allocate(v, g, cm, wdeg, c, sc)
	want, wantErr := allocateReference(v, g, cm, c, work)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s budget %d: error %v, reference %v", what, c, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s budget %d: result differs\n got %+v\nwant %+v", what, c, got, want)
	}
	return got
}

// spillRoundWebs splits the webs of a spill round's input and requires
// ir.Renumber, which the Chaitin loop uses there, to give exactly the
// same variables.
func spillRoundWebs(t *testing.T, what string, cur *isa.Function) *ir.Vars {
	t.Helper()
	want, err := ir.SplitWebs(cur)
	if err != nil {
		t.Fatalf("%s: SplitWebs: %v", what, err)
	}
	got, err := ir.Renumber(cur)
	if err != nil {
		t.Fatalf("%s: Renumber: %v", what, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Renumber differs from SplitWebs\n got %+v\nwant %+v", what, got, want)
	}
	return want
}

// diffFunction compares the two routines on f at every budget 4…70:
// round 0 against the Prep (with its precomputed degrees on even budgets,
// recomputed ones on odd), then every spill round the Chaitin loop would
// take, so spill temporaries (NoSpill) and the scratch-backed graph are
// covered too; each spill round's webs are also Renumber's. It returns the
// number of round-0 cases that colored.
func diffFunction(t *testing.T, what string, f *isa.Function, sc *Scratch, work *refWork) (colored int) {
	t.Helper()
	pr, err := Prepare(f)
	if err != nil {
		return 0
	}
	for c := 4; c <= 70; c++ {
		wdeg := pr.wdeg
		if c%2 == 1 {
			wdeg = nil
		}
		v, res := pr.Vars, diffAllocate(t, what, pr.Vars, pr.Graph, pr.Costs, wdeg, c, sc, work)
		if res != nil {
			colored++
		}
		for round := 1; res != nil && len(res.Spilled) > 0 && round < 32; round++ {
			cur := InsertSpills(v, PlanSpills(v, res.Spilled, 8))
			v = spillRoundWebs(t, fmt.Sprintf("%s budget %d round %d", what, c, round), cur)
			g := buildInterferenceInto(v, ir.ComputeLiveness(v), sc)
			res = diffAllocate(t, fmt.Sprintf("%s round %d", what, round), v, g, BuildCostModel(v), nil, c, sc, work)
		}
	}
	return colored
}

// TestAllocateMatchesReference is the byte-identity contract of the
// allocator's fast paths: on every function of the suite kernels and of
// the checked-in fuzz corpora at every budget, and on random graphs built
// to force each kind of eviction, allocate assigns exactly the colors,
// evicts exactly the victims in exactly the order, and fails with exactly
// the message of the restart-from-the-top routine it replaced.
func TestAllocateMatchesReference(t *testing.T) {
	var sc Scratch
	var work refWork

	ks, err := kernels.All()
	if err != nil {
		t.Fatal(err)
	}
	colored := 0
	for _, k := range ks {
		for _, f := range k.Prog.Funcs {
			colored += diffFunction(t, k.Name+"/"+f.Name, f, &sc, &work)
		}
	}
	if colored < 1876 {
		t.Errorf("suite kernels: %d (function, budget) cases colored, want at least 1876", colored)
	}
	t.Logf("suite kernels, %d colored cases and their spill rounds: simplify_scans %d -> %d, select_visits %d -> %d",
		colored, work.scans, sc.scans, work.visits, sc.visits)

	seen := 0
	for _, dir := range []string{
		"../isa/testdata/fuzz/FuzzDecode",
		"../core/testdata/fuzz/FuzzRealize",
	} {
		inputs, err := fuzzcorpus.Read(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range inputs {
			p, err := isa.Decode(e.Data)
			if err != nil || isa.Validate(p) != nil {
				continue
			}
			for _, f := range p.Funcs {
				if f.Allocated || f.NumVRegs > 512 || len(f.Instrs) > 512 {
					continue
				}
				seen++
				diffFunction(t, e.Name+"/"+f.Name, f, &sc, &work)
			}
		}
	}
	t.Logf("fuzz corpora: %d functions", seen)

	before := work
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 400; i++ {
		v, g, cm := randomColoring(rng)
		for _, c := range []int{6, 8, 12, 16, 24} {
			diffAllocate(t, fmt.Sprintf("random graph %d", i), v, g, cm, nil, c, &sc, &work)
		}
	}
	self, early, late := work.self-before.self, work.colored-before.colored, work.uncolored-before.uncolored
	t.Logf("random graphs: evictions of the failing variable %d, of a colored one %d, of an uncolored one %d", self, early, late)
	if self == 0 || early == 0 || late == 0 {
		t.Error("random graphs did not force all three eviction cases")
	}
}

// randomColoring builds a coloring problem directly, without code behind
// it: a few precolored arguments, variables of width 1 to 4, a random
// interference graph dense enough to spill at small budgets, random
// occurrence counts (so the victim is as often a neighbor as the failing
// variable), some unspillable temporaries, and move pairs between
// variables of equal width.
func randomColoring(rng *rand.Rand) (*ir.Vars, *Graph, *CostModel) {
	n := 8 + rng.Intn(56)
	nargs := rng.Intn(4)
	v := &ir.Vars{F: &isa.Function{Name: "random"}, Defs: make([]ir.VarDef, n)}
	cm := &CostModel{Occurrences: make([]int, n), Pairs: map[int][]int{}}
	for id := range v.Defs {
		d := &v.Defs[id]
		d.Width = 1
		if id < nargs {
			d.IsArg, d.Base = true, isa.Reg(id)
		} else if rng.Intn(3) == 0 {
			d.Width = 2 + rng.Intn(3)
		}
		d.NoSpill = !d.IsArg && rng.Intn(12) == 0
		cm.Occurrences[id] = 1 + rng.Intn(8)
	}
	g := NewGraph(n)
	density := 0.1 + 0.5*rng.Float64()
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if (a < nargs && b < nargs) || rng.Float64() < density {
				g.AddEdge(a, b)
			}
		}
	}
	for k := rng.Intn(n); k > 0; k-- {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b && v.Defs[a].Width == v.Defs[b].Width {
			cm.Pairs[a] = append(cm.Pairs[a], b)
			cm.Pairs[b] = append(cm.Pairs[b], a)
		}
	}
	return v, g, cm
}

// BenchmarkAllocateSpillHeavy times one round-0 coloring of the suite's
// largest function (most webs) at a third of its max-live, where most of
// the stack is pushed optimistically and most failures evict: the case
// that separates work proportional to the graph from work proportional to
// n² and to the number of evictions. The reference runs beside it.
func BenchmarkAllocateSpillHeavy(b *testing.B) {
	pr := largestPrep(b)
	c := pr.MaxLive / 3
	b.Run("allocate", func(b *testing.B) {
		var sc Scratch
		for i := 0; i < b.N; i++ {
			if _, err := allocate(pr.Vars, pr.Graph, pr.Costs, pr.wdeg, c, &sc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := allocateReference(pr.Vars, pr.Graph, pr.Costs, c, new(refWork)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// largestPrep prepares the suite function with the most webs.
func largestPrep(b *testing.B) *Prep {
	b.Helper()
	ks, err := kernels.All()
	if err != nil {
		b.Fatal(err)
	}
	var pr *Prep
	for _, k := range ks {
		for _, f := range k.Prog.Funcs {
			p, err := Prepare(f)
			if err != nil {
				b.Fatal(err)
			}
			if pr == nil || p.Vars.NumVars() > pr.Vars.NumVars() {
				pr = p
			}
		}
	}
	return pr
}

// BenchmarkSpillRounds times the whole Chaitin loop of Prep.ReColor on the
// suite's largest function at the highest register budget that takes at
// least three rounds: round 0 from the Prep, then spill rounds that
// renumber webs and rebuild liveness, graph and costs.
func BenchmarkSpillRounds(b *testing.B) {
	pr := largestPrep(b)
	const shared = 8
	c, rounds := pr.MaxLive, 0
	for ; c >= 4; c-- {
		if a, err := pr.ReColor(c, shared); err == nil && a.Rounds >= 3 {
			rounds = a.Rounds
			break
		}
	}
	if rounds == 0 {
		b.Fatal("no register budget takes three rounds")
	}
	b.Logf("%s: %d webs, budget %d, %d rounds", pr.fn.Name, pr.Vars.NumVars(), c, rounds)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pr.ReColor(c, shared); err != nil {
			b.Fatal(err)
		}
	}
}
