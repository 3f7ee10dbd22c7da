package prof

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/isa"
)

const twoFuncSrc = `
.kernel k
.blockdim 32
.func main
  MOVI v0, 1
  IADD v1, v0, v0
  EXIT
.func helper
  MOVI v0, 7
  RET
`

func TestIndexFlatPCs(t *testing.T) {
	p := isa.MustParse(twoFuncSrc)
	ix := NewIndex(p)
	if ix.NumPCs() != 5 {
		t.Fatalf("NumPCs = %d, want 5", ix.NumPCs())
	}
	frs := ix.Funcs()
	if len(frs) != 2 || frs[0].Name != "main" || frs[1].Name != "helper" {
		t.Fatalf("Funcs = %+v", frs)
	}
	if frs[0].Start != 0 || frs[0].End != 3 || frs[1].Start != 3 || frs[1].End != 5 {
		t.Fatalf("ranges = %+v", frs)
	}

	// Every flat PC locates its function, local PC and instruction.
	for fi, f := range p.Funcs {
		for i := range f.Instrs {
			pc := frs[fi].Start + i
			fr, local, in := ix.Locate(pc)
			if fr != frs[fi] || local != i || in != &f.Instrs[i] {
				t.Fatalf("Locate(%d) = %+v, %d, %p; want %+v, %d, %p", pc, fr, local, in, frs[fi], i, &f.Instrs[i])
			}
		}
	}

	// PCs outside the program have no location.
	for _, pc := range []int{-1, ix.NumPCs()} {
		if fr, _, in := ix.Locate(pc); in != nil {
			t.Fatalf("Locate(%d) = %+v, %v; want no instruction", pc, fr, in)
		}
	}
}

func TestResolveSpill(t *testing.T) {
	dbg := &DebugInfo{
		RegBudget: 16,
		Funcs: map[string][]SpillWeb{
			"main": {
				{Round: 1, Web: 3, Class: SpillShared, Slot: 0, Width: 1},
				{Round: 2, Web: 9, Class: SpillLocal, Slot: 4, Width: 2},
			},
		},
	}
	// Store and load opcodes of the matching class resolve to the web.
	for _, op := range []isa.Op{isa.OpSpillSS, isa.OpSpillSL} {
		w, ok := dbg.ResolveSpill("main", op, 0)
		if !ok || w.Web != 3 {
			t.Fatalf("op %v slot 0 -> %+v, %v", op, w, ok)
		}
	}
	// A wide web matches every slot in its range.
	for _, imm := range []int32{4, 5} {
		w, ok := dbg.ResolveSpill("main", isa.OpSpillLL, imm)
		if !ok || w.Web != 9 {
			t.Fatalf("local slot %d -> %+v, %v", imm, w, ok)
		}
	}
	// Class mismatch, out-of-range slots, unknown functions, and
	// non-spill opcodes all miss.
	if _, ok := dbg.ResolveSpill("main", isa.OpSpillLL, 0); ok {
		t.Fatal("local lookup matched a shared web")
	}
	if _, ok := dbg.ResolveSpill("main", isa.OpSpillSS, 9); ok {
		t.Fatal("out-of-range slot resolved")
	}
	if _, ok := dbg.ResolveSpill("other", isa.OpSpillSS, 0); ok {
		t.Fatal("unknown function resolved")
	}
	if _, ok := dbg.ResolveSpill("main", isa.OpIAdd, 0); ok {
		t.Fatal("non-spill opcode resolved")
	}
	// Nil receiver is safe.
	var nilDbg *DebugInfo
	if _, ok := nilDbg.ResolveSpill("main", isa.OpSpillSS, 0); ok {
		t.Fatal("nil DebugInfo resolved")
	}
}

func TestSpillWebNaming(t *testing.T) {
	w := SpillWeb{Round: 2, Web: 12, Class: SpillShared, Slot: 4, Width: 2}
	if got := w.Name("kmain"); got != "kmain/web12.r2" {
		t.Fatalf("Name = %q", got)
	}
	if got := w.Location(); got != "shared[4..5]" {
		t.Fatalf("Location = %q", got)
	}
	narrow := SpillWeb{Class: SpillLocal, Slot: 7, Width: 1}
	if got := narrow.Location(); got != "local[7]" {
		t.Fatalf("narrow Location = %q", got)
	}
}

// buildProfile fabricates a profile over the two-function program with
// a known stall distribution.
func buildProfile(p *isa.Program) *Profile {
	ix := NewIndex(p)
	pr := &Profile{
		Index:        ix,
		Issues:       make([]uint64, ix.NumPCs()),
		StallMem:     make([]uint64, ix.NumPCs()),
		StallALU:     make([]uint64, ix.NumPCs()),
		StallBarrier: make([]uint64, ix.NumPCs()),
		StallMSHR:    make([]uint64, ix.NumPCs()),
	}
	pr.Issues[0] = 10
	pr.StallALU[0] = 5
	pr.Issues[1] = 10
	pr.StallMem[1] = 100 // hottest
	pr.Issues[3] = 4     // helper entry: issues but no stalls
	pr.Warps = [][]uint64{{LogIssue(0, false), LogIssue(1, true), LogIssue(3, false)}}
	return pr
}

func TestBuildRanksAndTruncates(t *testing.T) {
	p := isa.MustParse(twoFuncSrc)
	rep := Build(buildProfile(p), nil)
	// Zero-count PCs never appear.
	if len(rep.HotSpots) != 3 {
		t.Fatalf("hot spots = %d, want the 3 nonzero PCs", len(rep.HotSpots))
	}
	for i, pc := range []int{1, 0, 3} {
		if rep.HotSpots[i].PC != pc {
			t.Fatalf("hot spot %d = %+v, want pc %d", i, rep.HotSpots[i], pc)
		}
	}
	if rep.HotSpots[0].StallTotal != 100 {
		t.Fatalf("top = %+v", rep.HotSpots[0])
	}
	if rep.HotSpots[0].Func != "main" || rep.HotSpots[0].LocalPC != 1 {
		t.Fatalf("top location = %s+%d", rep.HotSpots[0].Func, rep.HotSpots[0].LocalPC)
	}
	if rep.HotSpots[0].Text == "" {
		t.Fatal("top has no disassembly")
	}

	// A profile with more busy PCs than hotSpots keeps the hottest.
	src := ".kernel k\n.blockdim 32\n.func main\n" +
		strings.Repeat("  MOVI v0, 1\n", hotSpots+2) + "  EXIT\n"
	ix := NewIndex(isa.MustParse(src))
	pr := &Profile{
		Index:        ix,
		Issues:       make([]uint64, ix.NumPCs()),
		StallMem:     make([]uint64, ix.NumPCs()),
		StallALU:     make([]uint64, ix.NumPCs()),
		StallBarrier: make([]uint64, ix.NumPCs()),
		StallMSHR:    make([]uint64, ix.NumPCs()),
	}
	for pc := 0; pc < ix.NumPCs(); pc++ {
		pr.Issues[pc] = 1
		pr.StallALU[pc] = uint64(pc)
	}
	rep = Build(pr, nil)
	if len(rep.HotSpots) != hotSpots {
		t.Fatalf("hot spots = %d, want %d (truncated)", len(rep.HotSpots), hotSpots)
	}
	if top := rep.HotSpots[0].PC; top != ix.NumPCs()-1 {
		t.Fatalf("top pc = %d, want %d", top, ix.NumPCs()-1)
	}
}

func TestBuildResolvesWebs(t *testing.T) {
	src := `
.kernel k
.blockdim 32
.func main
  MOVI v0, 1
  SPST.S 2, v0
  SPLD.S v1, 2
  EXIT
`
	p := isa.MustParse(src)
	ix := NewIndex(p)
	pr := &Profile{
		Index:        ix,
		Issues:       make([]uint64, ix.NumPCs()),
		StallMem:     make([]uint64, ix.NumPCs()),
		StallALU:     make([]uint64, ix.NumPCs()),
		StallBarrier: make([]uint64, ix.NumPCs()),
		StallMSHR:    make([]uint64, ix.NumPCs()),
	}
	pr.Issues[1] = 8
	pr.StallMem[1] = 40 // spill store
	pr.Issues[2] = 8
	pr.StallMem[2] = 30 // spill load, same web
	dbg := &DebugInfo{
		RegBudget: 8,
		Funcs: map[string][]SpillWeb{
			"main": {{Round: 1, Web: 5, Class: SpillShared, Slot: 2, Width: 1}},
		},
	}
	rep := Build(pr, dbg)
	if rep.RegBudget != 8 {
		t.Fatalf("RegBudget = %d", rep.RegBudget)
	}
	if rep.HotSpots[0].Web != "main/web5.r1" {
		t.Fatalf("top web = %q", rep.HotSpots[0].Web)
	}
	if len(rep.Webs) != 1 {
		t.Fatalf("webs = %+v", rep.Webs)
	}
	wc := rep.Webs[0]
	if wc.Name != "main/web5.r1" || wc.Issues != 16 || wc.StallCycles != 70 {
		t.Fatalf("web cost = %+v", wc)
	}
}

func TestReportRenderAndJSON(t *testing.T) {
	p := isa.MustParse(twoFuncSrc)
	rep := Build(buildProfile(p), &DebugInfo{RegBudget: 16})
	rep.Kernel = "k"
	rep.TargetWarps = 32
	rep.Cycles = 1000
	rep.Instructions = 24

	var buf bytes.Buffer
	rep.Render(&buf)
	out := buf.String()
	for _, want := range []string{
		"profile: 24 instructions in 1000 cycles",
		"occupancy decision: 32 warps/SM colored at 16 regs/thread",
		"hot spots (top 3 by attributed stall cycles):",
		"main+1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}

	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"kernel", "stalls", "hot_spots", "cycles"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("JSON missing %q", key)
		}
	}
}

func TestProfileEqual(t *testing.T) {
	p := isa.MustParse(twoFuncSrc)
	a, b := buildProfile(p), buildProfile(p)
	if !a.Equal(b) {
		t.Fatal("identical profiles not Equal")
	}
	b.StallMem[1]++
	if a.Equal(b) {
		t.Fatal("differing profiles Equal")
	}
	b.StallMem[1]--
	b.Tracks = []Track{{Name: "ipc", Points: []float64{1}}}
	if a.Equal(b) {
		t.Fatal("differing tracks Equal")
	}
	b.Tracks = nil
	b.Warps[0][1] ^= 1 // one memory bit
	if a.Equal(b) {
		t.Fatal("differing issue logs Equal")
	}
}

// TestTimelineRendering: one row per warp that issued, each delimited,
// cells by issue density with memory-dominated buckets marked.
func TestTimelineRendering(t *testing.T) {
	p := &Profile{Warps: [][]uint64{
		{LogIssue(0, false), LogIssue(1, false), LogIssue(6, true)},
		{LogIssue(2, true), LogIssue(3, true)},
		nil, // never issued: no row
	}}
	out := p.Timeline(7, 4)
	want := "timeline: 7 cycles across 4 columns (2 cycles/column)\n" +
		"w0    |#  M|\n" +
		"w1    | M  |\n" +
		"legend: '#' dense issue, '+' medium, '.' sparse, 'M' memory-dominated, ' ' stalled\n"
	if out != want {
		t.Errorf("timeline:\n%s\nwant:\n%s", out, want)
	}
	rows := 0
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "w") && strings.Contains(l, "|") {
			rows++
			if got := strings.Count(l, "|"); got != 2 {
				t.Errorf("row not delimited: %q", l)
			}
		}
	}
	if rows != 2 {
		t.Errorf("timeline rows = %d, want 2", rows)
	}
	empty := (&Profile{}).Timeline(0, 40)
	if !strings.Contains(empty, "no trace") {
		t.Error("empty trace rendering wrong")
	}
}
