package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/interp"
	"repro/internal/isa"
	"repro/internal/occupancy"
)

// randomProgram generates a structured random kernel: a bounded loop with
// a random ALU/memory/branch mix, optionally calling one or two random
// helper functions. All programs terminate (counted loop) and are
// deterministic.
func randomProgram(r *rand.Rand) *isa.Program {
	var b strings.Builder
	nHelpers := r.Intn(3)
	accs := 3 + r.Intn(20)
	body := 6 + r.Intn(30)
	iters := 2 + r.Intn(6)

	fmt.Fprintf(&b, ".kernel rnd\n.blockdim %d\n.func main\n", 32*(1+r.Intn(8)))
	b.WriteString("  RDSP v0, WARPID\n  MOVI v1, 12\n  SHL v2, v0, v1\n  MOVI v3, 0\n  MOVI v4, 1\n")
	acc := func(k int) int { return 10 + k%accs }
	for k := 0; k < accs; k++ {
		fmt.Fprintf(&b, "  MOVI v%d, %d\n", acc(k), r.Intn(1000))
	}
	b.WriteString("loop:\n")
	for j := 0; j < body; j++ {
		switch r.Intn(6) {
		case 0:
			fmt.Fprintf(&b, "  IADD v7, v2, v3\n  LDG v8, [v7+%d]\n  XOR v%d, v%d, v8\n",
				r.Intn(64)*4, acc(j), acc(j))
		case 1:
			if nHelpers > 0 {
				fmt.Fprintf(&b, "  CALL v8, h%d, v%d\n  XOR v%d, v%d, v8\n",
					r.Intn(nHelpers), acc(j), acc(j), acc(j))
			} else {
				fmt.Fprintf(&b, "  IMAD v%d, v%d, v4, v%d\n", acc(j), acc(j), acc(j+1))
			}
		case 2:
			// Forward branch over a couple of instructions.
			fmt.Fprintf(&b, "  ISET.LT v8, v%d, v%d\n  CBR v8, skip%d\n  IADD v%d, v%d, v4\n  XOR v%d, v%d, v%d\nskip%d:\n",
				acc(j), acc(j+1), j, acc(j), acc(j), acc(j+1), acc(j+1), acc(j), j)
		case 3:
			fmt.Fprintf(&b, "  FMUL v8, v%d, v%d\n  FADD v%d, v%d, v8\n",
				acc(j), acc(j+1), acc(j), acc(j))
		default:
			fmt.Fprintf(&b, "  IMAD v%d, v%d, v4, v%d\n", acc(j), acc(j), acc(j+1))
		}
	}
	fmt.Fprintf(&b, "  IADD v3, v3, v4\n  MOVI v8, %d\n  ISET.LT v9, v3, v8\n  CBR v9, loop\n", iters)
	b.WriteString("  MOV v5, v10\n")
	for k := 1; k < accs; k++ {
		fmt.Fprintf(&b, "  XOR v5, v5, v%d\n", acc(k))
	}
	b.WriteString("  STG [v2], v5\n  EXIT\n")

	for h := 0; h < nHelpers; h++ {
		fmt.Fprintf(&b, ".func h%d args 1 ret\n", h)
		for j := 0; j < 2+r.Intn(5); j++ {
			fmt.Fprintf(&b, "  MOVI v%d, %d\n  IMAD v%d, v0, v%d, v%d\n",
				j+1, r.Intn(100), j+2, j+1, j+1)
		}
		fmt.Fprintf(&b, "  RET v%d\n", 1+r.Intn(3))
	}
	p, err := isa.Parse(b.String())
	if err != nil {
		panic(fmt.Sprintf("generator produced invalid program: %v\n%s", err, b.String()))
	}
	return p
}

// TestRealizeRandomPrograms pushes random programs through the complete
// pipeline (webs, allocation, compressible stack, coalescing, elision) at
// random occupancy levels on both devices and checks semantics every time.
func TestRealizeRandomPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("generative test is slow")
	}
	r := rand.New(rand.NewSource(20260706))
	const iterations = 60
	for iter := 0; iter < iterations; iter++ {
		p := randomProgram(r)
		if err := isa.Validate(p); err != nil {
			t.Fatalf("iter %d: generator: %v", iter, err)
		}
		want, err := interp.Run(&interp.Launch{Prog: p, GridWarps: 4}, 500000, nil)
		if err != nil {
			t.Fatalf("iter %d: reference: %v", iter, err)
		}
		d := device.Both()[iter%2]
		levels := occupancy.Levels(d, p.BlockDim)
		lvl := levels[r.Intn(len(levels))]
		rz := NewRealizer(d, device.SmallCache)
		v, err := rz.Realize(p, lvl)
		if err != nil {
			var inf *ErrInfeasible
			if errors.As(err, &inf) {
				continue
			}
			t.Fatalf("iter %d (%s lvl %d): %v\n%s", iter, d.Name, lvl, err, isa.Format(p))
		}
		got, err := interp.Run(&interp.Launch{Prog: v.Prog, GridWarps: 4}, 500000, nil)
		if err != nil {
			t.Fatalf("iter %d (%s lvl %d): allocated run: %v", iter, d.Name, lvl, err)
		}
		if got.Checksum != want.Checksum {
			t.Fatalf("iter %d (%s lvl %d): checksum %x, want %x\noriginal:\n%s\nallocated:\n%s",
				iter, d.Name, lvl, got.Checksum, want.Checksum, isa.Format(p), isa.Format(v.Prog))
		}
		if v.RegsPerThread > d.MaxRegsPerThread {
			t.Fatalf("iter %d: register budget violated", iter)
		}
	}
}

// entryLoopSrc carries v1 around a back edge to instruction 0: v1's value
// on entry and the value carried back must share one register.
const entryLoopSrc = `
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
`

// TestRealizeLoopHeaderAtEntry realizes the entry-loop kernel at every
// feasible level on both devices and requires each version to keep the
// original's checksum.
func TestRealizeLoopHeaderAtEntry(t *testing.T) {
	p := isa.MustParse(entryLoopSrc)
	want, err := interp.Run(&interp.Launch{Prog: p, GridWarps: 8}, 100000, nil)
	if err != nil {
		t.Fatalf("original: %v", err)
	}
	for _, d := range device.Both() {
		rz := NewRealizer(d, device.SmallCache)
		realized := 0
		for _, lvl := range occupancy.Levels(d, p.BlockDim) {
			v, err := rz.Realize(p, lvl)
			var inf *ErrInfeasible
			if errors.As(err, &inf) {
				continue
			}
			if err != nil {
				t.Fatalf("%s level %d: %v", d.Name, lvl, err)
			}
			realized++
			got, err := interp.Run(&interp.Launch{Prog: v.Prog, GridWarps: 8}, 100000, nil)
			if err != nil {
				t.Fatalf("%s level %d: realized run: %v\n%s", d.Name, lvl, err, isa.Format(v.Prog))
			}
			if got.Checksum != want.Checksum {
				t.Fatalf("%s level %d: checksum %x, want %x", d.Name, lvl, got.Checksum, want.Checksum)
			}
		}
		if realized == 0 {
			t.Fatalf("%s: no level realized", d.Name)
		}
	}
}
