package ir

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/isa"
)

// runBounded executes the program with a small step budget, returning its
// checksum or an error for non-terminating programs.
func runBounded(p *isa.Program) (uint64, error) {
	res, err := interp.Run(&interp.Launch{Prog: p, GridWarps: 2}, 5000, nil)
	if err != nil {
		return 0, err
	}
	return res.Checksum, nil
}

// splitAll returns a copy of p with every function web-split.
func splitAll(t *testing.T, p *isa.Program) *isa.Program {
	t.Helper()
	np := p.Clone()
	for fi, f := range p.Funcs {
		v, err := SplitWebs(f)
		if err != nil {
			t.Fatalf("SplitWebs(%s): %v", f.Name, err)
		}
		np.Funcs[fi] = v.F
	}
	return np
}

// randomCFGProgram emits a program whose function under test (main, or a
// two-argument callee f when callee is set) has random forward branches
// and fuel-guarded conditional branches anywhere, a third of them to L0.
// v0–v3 carry values across the back edges (in f, v0 and v1 arrive as
// arguments) and are reused for independent values; v5 is the fuel
// counter, live on entry and incremented at every guarded branch, so
// every program terminates. The result is the program and the index of
// the function under test.
func randomCFGProgram(r *rand.Rand, callee bool) (*isa.Program, int) {
	n := 4 + r.Intn(12)
	var b strings.Builder
	b.WriteString(".kernel rnd\n.blockdim 32\n.func main\n")
	if callee {
		b.WriteString("  MOVI v0, 3\n  RDSP v1, WARPID\n  CALL v2, f, v0, v1\n  STG [v1], v2\n  EXIT\n.func f args 2 ret\n")
	}
	carried := func() int { return r.Intn(4) }
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "L%d:\n", i)
		for k := r.Intn(3); k > 0; k-- {
			if r.Intn(3) == 0 {
				fmt.Fprintf(&b, "  MOVI v%d, %d\n", carried(), r.Intn(9))
			} else {
				fmt.Fprintf(&b, "  IADD v%d, v%d, v%d\n", carried(), carried(), carried())
			}
		}
		switch r.Intn(4) {
		case 0:
			fmt.Fprintf(&b, "  BRA L%d\n", i+1+r.Intn(n-i))
		case 1, 2:
			tgt := r.Intn(n)
			if r.Intn(3) == 0 {
				tgt = 0
			}
			fmt.Fprintf(&b, "  MOVI v6, 1\n  IADD v5, v5, v6\n  MOVI v7, %d\n  ISET.LT v4, v5, v7\n  CBR v4, L%d\n", 2+r.Intn(10), tgt)
		}
	}
	fmt.Fprintf(&b, "L%d:\n  MOVI v8, 16\n", n)
	for u := 0; u < 4; u++ {
		fmt.Fprintf(&b, "  STG [v8+%d], v%d\n", 4*u, u)
	}
	if callee {
		b.WriteString("  RET v5\n")
	} else {
		b.WriteString("  EXIT\n")
	}
	p, err := isa.Parse(b.String())
	if err != nil {
		panic(err)
	}
	return p, len(p.Funcs) - 1
}

func TestSplitWebsSemanticsPropertyRandomCFG(t *testing.T) {
	// Random-branch programs must keep their (terminating) semantics
	// through web splitting. Programs with infinite loops are skipped.
	r := rand.New(rand.NewSource(7331))
	tested := 0
	for iter := 0; iter < 200; iter++ {
		p, _ := randomCFGProgram(r, iter%2 == 1)
		if isa.Validate(p) != nil {
			continue
		}
		before, err := runBounded(p)
		if err != nil {
			continue // non-terminating or invalid
		}
		np := splitAll(t, p)
		after, err := runBounded(np)
		if err != nil {
			t.Fatalf("iter %d: rewritten program failed: %v\n%s", iter, err, isa.Format(p))
		}
		if before != after {
			t.Fatalf("iter %d: checksum %x -> %x\n%s", iter, before, after, isa.Format(p))
		}
		tested++
	}
	if tested < 150 {
		t.Fatalf("only %d terminating programs generated", tested)
	}
}

// TestSplitWebsLoopHeaderAtEntry: when instruction 0 is a branch target,
// the value a unit carries into the function and the values carried
// around the back edges to it are one web. Each program must keep its
// checksum through web splitting.
func TestSplitWebsLoopHeaderAtEntry(t *testing.T) {
	srcs := map[string]string{
		"selfloop": `
.kernel entryloop
.blockdim 32
.func main
top:
  MOVI v6, 1
  IADD v1, v1, v6
  MOVI v9, 5
  ISET.LT v7, v1, v9
  CBR v7, top
  RDSP v0, WARPID
  STG [v0], v1
  EXIT
`,
		"twopreds": `
.kernel entryloop
.blockdim 32
.func main
top:
  MOVI v6, 1
  IADD v1, v1, v6
  MOVI v9, 5
  ISET.LT v7, v1, v9
  CBR v7, top
  MOVI v9, 9
  ISET.LT v7, v1, v9
  CBR v7, top
  RDSP v0, WARPID
  STG [v0], v1
  EXIT
`,
		"calleearg": `
.kernel entryloop
.blockdim 32
.func main
  RDSP v0, WARPID
  CALL v1, f, v0
  STG [v0], v1
  EXIT
.func f args 1 ret
top:
  MOVI v6, 1
  IADD v0, v0, v6
  MOVI v9, 9
  ISET.LT v7, v0, v9
  CBR v7, top
  RET v0
`,
	}
	checkSplitKeepsChecksum(t, srcs)
}

// defUseWebs is the definitional partition SplitWebs must produce: it
// computes the definitions reaching each instruction by plain iteration
// over the instruction graph (every unit also has a definition at function
// entry, which for an argument is its arrival) and joins the definitions
// that reach a common use, and each use with them. It returns the class
// of every scalar operand of reachable code, keyed like webNames.op, and
// of every entry definition, keyed by unit. The generator makes no wide
// accesses, so every unit is scalar.
func defUseWebs(f *isa.Function) (op map[[2]int]int, entry []int) {
	n, ni := f.NumVRegs, len(f.Instrs)
	parent := make([]int, n+ni) // defs: n+i is instruction i's, u is unit u's entry
	for d := range parent {
		parent[d] = d
	}
	find := func(x int) int {
		for parent[x] != x {
			x = parent[x]
		}
		return x
	}
	succs := func(i int) []int {
		in := &f.Instrs[i]
		switch {
		case in.Op == isa.OpBra:
			return []int{int(in.Tgt)}
		case in.Op == isa.OpCbr && i+1 < ni:
			return []int{int(in.Tgt), i + 1}
		case in.Op == isa.OpCbr:
			return []int{int(in.Tgt)}
		case in.Terminates() || i+1 == ni:
			return nil
		}
		return []int{i + 1}
	}
	reach := make([]map[int]bool, ni) // defs reaching the start of i; nil: unreachable
	reach[0] = map[int]bool{}
	for u := 0; u < n; u++ {
		reach[0][u] = true
	}
	for changed := true; changed; {
		changed = false
		for i := range f.Instrs {
			if reach[i] == nil {
				continue
			}
			in := &f.Instrs[i]
			for _, s := range succs(i) {
				if reach[s] == nil {
					reach[s] = map[int]bool{}
				}
				for d := range reach[i] {
					killed := in.HasDst() && (d == int(in.Dst) || d >= n && f.Instrs[d-n].Dst == in.Dst)
					if !killed && !reach[s][d] {
						reach[s][d], changed = true, true
					}
				}
				if in.HasDst() && !reach[s][n+i] {
					reach[s][n+i], changed = true, true
				}
			}
		}
	}
	op = map[[2]int]int{}
	for i := range f.Instrs {
		if reach[i] == nil {
			continue
		}
		in := &f.Instrs[i]
		for s := 0; s < in.NumSrcs(); s++ {
			u := int(in.Src[s])
			first := -1
			for d := range reach[i] {
				if d != u && (d < n || f.Instrs[d-n].Dst != in.Src[s]) {
					continue
				}
				if first < 0 {
					first = d
				} else if ra, rb := find(d), find(first); ra != rb {
					parent[ra] = rb
				}
			}
			op[[2]int{i, s}] = first
		}
	}
	for k, d := range op {
		op[k] = find(d)
	}
	for i := range f.Instrs {
		if reach[i] != nil && f.Instrs[i].HasDst() {
			op[[2]int{i, -1}] = find(n + i)
		}
	}
	entry = make([]int, n)
	for u := range entry {
		entry[u] = find(u)
	}
	return op, entry
}

// TestSplitWebsMatchesDefUseChains checks SplitWebs against the definition
// of a web on random functions, branches to pc 0 and arguments carried
// around back edges included: two operands share a variable exactly when
// their definitions are joined through common uses, and argument a's
// variable is the one its arrival joins.
func TestSplitWebsMatchesDefUseChains(t *testing.T) {
	r := rand.New(rand.NewSource(31337))
	for iter := 0; iter < 300; iter++ {
		p, fi := randomCFGProgram(r, iter%2 == 1)
		f := p.Funcs[fi]
		v, err := SplitWebs(f)
		if err != nil {
			t.Fatalf("iter %d: SplitWebs: %v", iter, err)
		}
		op, entry := defUseWebs(f)
		varOf := map[int]int{} // reference class -> variable
		classOf := map[int]int{}
		same := func(class, vr int) {
			if c, ok := classOf[vr]; ok && c != class {
				t.Fatalf("iter %d: variable %d joins two webs\n%s", iter, vr, isa.Format(p))
			}
			if w, ok := varOf[class]; ok && w != vr {
				t.Fatalf("iter %d: one web split into variables %d and %d\n%s", iter, w, vr, isa.Format(p))
			}
			classOf[vr], varOf[class] = class, vr
		}
		for a := 0; a < f.NumArgs; a++ {
			same(entry[a], a)
		}
		for k, class := range op {
			in := &v.F.Instrs[k[0]]
			reg := in.Dst
			if k[1] >= 0 {
				reg = in.Src[k[1]]
			}
			same(class, v.VarAt(reg))
		}
	}
}
