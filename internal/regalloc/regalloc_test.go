package regalloc

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/prof"
)

func split(t *testing.T, src string) (*isa.Program, *ir.Vars, *ir.Live) {
	t.Helper()
	p, err := isa.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	v, err := ir.SplitWebs(p.Entry())
	if err != nil {
		t.Fatalf("SplitWebs: %v", err)
	}
	return p, v, ir.ComputeLiveness(v)
}

const pressureSrc = `
.kernel k
.blockdim 32
.func main
  MOVI v0, 1
  MOVI v1, 2
  MOVI v2, 3
  MOVI v3, 4
  MOVI v4, 5
  IADD v5, v0, v1
  IADD v6, v5, v2
  IADD v7, v6, v3
  IADD v8, v7, v4
  STG [v8], v8
  EXIT
`

// checkColoring asserts that no two interfering variables overlap in
// physical registers and that wide variables are aligned.
func checkColoring(t *testing.T, v *ir.Vars, g *Graph, res *Result, c int) {
	t.Helper()
	for a := 0; a < v.NumVars(); a++ {
		ca := res.Color[a]
		if ca < 0 {
			continue
		}
		wa := v.Defs[a].Width
		if ca%isa.AlignFor(wa) != 0 {
			t.Errorf("var %d width %d at unaligned register %d", a, wa, ca)
		}
		if ca+wa > c {
			t.Errorf("var %d exceeds budget: %d+%d > %d", a, ca, wa, c)
		}
		for b := a + 1; b < v.NumVars(); b++ {
			cb := res.Color[b]
			if cb < 0 || !g.Interferes(a, b) {
				continue
			}
			wb := v.Defs[b].Width
			if ca < cb+wb && cb < ca+wa {
				t.Errorf("interfering vars %d and %d overlap: [%d,%d) vs [%d,%d)",
					a, b, ca, ca+wa, cb, cb+wb)
			}
		}
	}
}

func TestAllocateNoSpillsWhenRoomy(t *testing.T) {
	_, v, live := split(t, pressureSrc)
	g := BuildInterference(v, live)
	res, err := Allocate(v, g, 16)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if len(res.Spilled) != 0 {
		t.Fatalf("spilled %v with 16 registers", res.Spilled)
	}
	checkColoring(t, v, g, res, 16)
	// Peak pressure is 5 simultaneously live + the accumulator: frame must
	// be at least 5 but no more than ~7.
	if res.FrameSlots < 5 || res.FrameSlots > 8 {
		t.Errorf("FrameSlots = %d, want ~5-8", res.FrameSlots)
	}
}

func TestAllocateSpillsUnderPressure(t *testing.T) {
	_, v, live := split(t, pressureSrc)
	g := BuildInterference(v, live)
	res, err := Allocate(v, g, 3)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if len(res.Spilled) == 0 {
		t.Fatal("expected spills with 3 registers")
	}
	checkColoring(t, v, g, res, 3)
}

func TestAllocateWideAlignment(t *testing.T) {
	src := `
.kernel k
.blockdim 32
.func main
  MOVI v0, 64
  LDG.64 v2, [v0]
  LDG.128 v4, [v0+16]
  LDG v1, [v0+4]
  IADD v8, v2, v4
  IADD v8, v8, v1
  IADD v8, v8, v5
  STG [v0], v8
  EXIT
`
	_, v, live := split(t, src)
	g := BuildInterference(v, live)
	res, err := Allocate(v, g, 12)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if len(res.Spilled) != 0 {
		t.Fatalf("unexpected spills %v", res.Spilled)
	}
	checkColoring(t, v, g, res, 12)
	sawWide := false
	for id, d := range v.Defs {
		if d.Width == 4 {
			sawWide = true
			if res.Color[id]%4 != 0 {
				t.Errorf("128-bit var at register %d (unaligned)", res.Color[id])
			}
		}
	}
	if !sawWide {
		t.Fatal("test lost its wide variable")
	}
}

func TestArgsPrecolored(t *testing.T) {
	src := `
.kernel k
.blockdim 32
.func main
  MOVI v0, 3
  CALL v1, f, v0, v0
  STG [v1], v1
  EXIT
.func f args 2 ret
  IMUL v2, v0, v1
  IADD v3, v2, v0
  RET v3
`
	p, err := isa.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	v, err := ir.SplitWebs(p.FuncByName("f"))
	if err != nil {
		t.Fatalf("SplitWebs: %v", err)
	}
	live := ir.ComputeLiveness(v)
	g := BuildInterference(v, live)
	res, err := Allocate(v, g, 8)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if res.Color[0] != 0 || res.Color[1] != 1 {
		t.Errorf("args colored %d,%d want 0,1", res.Color[0], res.Color[1])
	}
}

// runProg executes the program and returns its checksum.
func runProg(t *testing.T, p *isa.Program, warps int) uint64 {
	t.Helper()
	res, err := interp.Run(&interp.Launch{Prog: p, GridWarps: warps}, 2_000_000, nil)
	if err != nil {
		t.Fatalf("Run: %v\n%s", err, isa.Format(p))
	}
	return res.Checksum
}

func TestAllocateWithSpillsPreservesSemantics(t *testing.T) {
	srcs := []string{pressureSrc, `
.kernel loopy
.blockdim 64
.func main
  RDSP v0, WARPID
  MOVI v1, 0
  MOVI v2, 16
  MOVI v3, 0    ; acc1
  MOVI v4, 1    ; acc2
  MOVI v5, 2    ; acc3
  MOVI v6, 3    ; acc4
top:
  SHL v7, v1, v2
  IADD v8, v7, v0
  LDG v9, [v8]
  IADD v3, v3, v9
  XOR v4, v4, v9
  IMAD v5, v5, v9, v3
  IADD v6, v6, v4
  MOVI v10, 1
  IADD v1, v1, v10
  MOVI v11, 8
  ISET.LT v12, v1, v11
  CBR v12, top
  SHL v13, v0, v2
  STG [v13], v3
  STG [v13+4], v4
  STG [v13+8], v5
  STG [v13+12], v6
  EXIT
`}
	for _, src := range srcs {
		p, err := isa.Parse(src)
		if err != nil {
			t.Fatalf("Parse: %v", err)
		}
		want := runProg(t, p, 4)
		for _, budget := range []int{16, 10, 8, 6, 5} {
			for _, sharedBudget := range []int{0, 2, 16} {
				nf, err := AllocateWithSpills(p.Entry(), budget, sharedBudget)
				if err != nil {
					t.Fatalf("budget %d/%d: %v", budget, sharedBudget, err)
				}
				if nf.FrameSlots > budget {
					t.Fatalf("budget %d: frame %d exceeds it", budget, nf.FrameSlots)
				}
				np := p.Clone()
				np.Funcs[0] = nf
				if got := runProg(t, np, 4); got != want {
					t.Errorf("%s budget %d/%d: checksum %x, want %x",
						p.Name, budget, sharedBudget, got, want)
				}
			}
		}
	}
}

func TestAllocateWithSpillsUsesSharedFirst(t *testing.T) {
	p, err := isa.Parse(pressureSrc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	nf, err := AllocateWithSpills(p.Entry(), 3, 8)
	if err != nil {
		t.Fatalf("AllocateWithSpills: %v", err)
	}
	if nf.SpillShared == 0 {
		t.Error("no shared spills despite budget")
	}
	if nf.SpillLocal != 0 {
		t.Errorf("local spills %d despite shared budget headroom", nf.SpillLocal)
	}
	// With zero shared budget everything goes local.
	nf2, err := AllocateWithSpills(p.Entry(), 3, 0)
	if err != nil {
		t.Fatalf("AllocateWithSpills: %v", err)
	}
	if nf2.SpillShared != 0 || nf2.SpillLocal == 0 {
		t.Errorf("shared=%d local=%d, want 0 and >0", nf2.SpillShared, nf2.SpillLocal)
	}
}

// randomStraightLine generates a random straight-line kernel with heavy
// register pressure for the property test.
func randomStraightLine(r *rand.Rand) string {
	var b strings.Builder
	b.WriteString(".kernel rnd\n.blockdim 32\n.func main\n")
	n := 4 + r.Intn(12)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "  MOVI v%d, %d\n", i, r.Intn(1000))
	}
	ops := []string{"IADD", "ISUB", "XOR", "IMUL", "OR", "AND"}
	m := 5 + r.Intn(20)
	for i := 0; i < m; i++ {
		dst := r.Intn(n + 4)
		a := r.Intn(n)
		c := r.Intn(n)
		fmt.Fprintf(&b, "  %s v%d, v%d, v%d\n", ops[r.Intn(len(ops))], dst, a, c)
	}
	for i := 0; i < 3; i++ {
		fmt.Fprintf(&b, "  STG [v%d+%d], v%d\n", r.Intn(n), 8*i, r.Intn(n))
	}
	b.WriteString("  EXIT\n")
	return b.String()
}

func TestAllocatePropertyRandomPrograms(t *testing.T) {
	r := rand.New(rand.NewSource(2025))
	for iter := 0; iter < 150; iter++ {
		src := randomStraightLine(r)
		p, err := isa.Parse(src)
		if err != nil {
			t.Fatalf("Parse: %v\n%s", err, src)
		}
		want := runProg(t, p, 2)
		budget := 4 + r.Intn(12)
		shared := r.Intn(6)
		nf, err := AllocateWithSpills(p.Entry(), budget, shared)
		if err != nil {
			t.Fatalf("iter %d (budget %d): %v\n%s", iter, budget, err, src)
		}
		np := p.Clone()
		np.Funcs[0] = nf
		if got := runProg(t, np, 2); got != want {
			t.Fatalf("iter %d: checksum %x, want %x\nsource:\n%s\nallocated:\n%s",
				iter, got, want, src, isa.Format(np))
		}
		checkSpillRounds(t, fmt.Sprintf("iter %d", iter), p.Entry(), budget, shared)
	}
}

// checkSpillRounds walks the spill rounds Run(f, c, sharedBudget) takes
// and requires each round's webs from ir.Renumber to equal SplitWebs's.
func checkSpillRounds(t *testing.T, what string, f *isa.Function, c, sharedBudget int) {
	t.Helper()
	v, err := ir.SplitWebs(f)
	if err != nil {
		t.Fatalf("%s: SplitWebs: %v", what, err)
	}
	var sc Scratch
	for round := 1; round < 32; round++ {
		g := buildInterferenceInto(v, ir.ComputeLiveness(v), &sc)
		res, err := allocate(v, g, BuildCostModel(v), nil, c, &sc)
		if err != nil || len(res.Spilled) == 0 {
			return
		}
		budget := max(sharedBudget-(v.F.SpillShared-f.SpillShared), 0)
		cur := InsertSpills(v, PlanSpills(v, res.Spilled, budget))
		v = spillRoundWebs(t, fmt.Sprintf("%s round %d", what, round), cur)
	}
}

// TestRunRecordsSpillWebs: the Chaitin loop records a provenance entry
// for every evicted web, keyed by the (class, slot range) its spill
// instructions address — the contract the profiler resolves against.
func TestRunRecordsSpillWebs(t *testing.T) {
	p, err := isa.Parse(pressureSrc)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(p.Entry(), 4, 0) // tight budget forces spills
	if err != nil {
		t.Fatal(err)
	}
	if len(a.SpillWebs) == 0 {
		t.Fatal("no spill webs recorded under pressure")
	}
	seen := map[[2]int]bool{}
	for _, w := range a.SpillWebs {
		if w.Round < 1 {
			t.Errorf("web %d has round %d, want >= 1", w.Web, w.Round)
		}
		if w.Class != prof.SpillClass(SpillShared) && w.Class != prof.SpillClass(SpillLocal) {
			t.Errorf("web %d has class %v", w.Web, w.Class)
		}
		if w.Width < 1 {
			t.Errorf("web %d has width %d", w.Web, w.Width)
		}
		for s := w.Slot; s < w.Slot+w.Width; s++ {
			key := [2]int{int(w.Class), s}
			if seen[key] {
				t.Errorf("slot %v claimed by two webs", key)
			}
			seen[key] = true
		}
	}

	// Every spill instruction in the rewritten function resolves to a
	// recorded web through the profiler's provenance map.
	nf, err := Rewrite(a.Vars, a.Res)
	if err != nil {
		t.Fatal(err)
	}
	dbg := &prof.DebugInfo{RegBudget: 4, Funcs: map[string][]prof.SpillWeb{nf.Name: a.SpillWebs}}
	nspills := 0
	for i := range nf.Instrs {
		in := &nf.Instrs[i]
		if !in.IsSpill() {
			continue
		}
		nspills++
		if _, ok := dbg.ResolveSpill(nf.Name, in.Op, in.Imm); !ok {
			t.Errorf("spill %v slot %d resolves to no web", in.Op, in.Imm)
		}
	}
	if nspills == 0 {
		t.Fatal("rewritten function has no spill instructions")
	}

	// A roomy budget records no webs.
	roomy, err := Run(p.Entry(), 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(roomy.SpillWebs) != 0 {
		t.Fatalf("roomy allocation recorded webs: %+v", roomy.SpillWebs)
	}
}
