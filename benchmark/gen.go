package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/sa"
)

// shape fixes everything about a generated program that decides how much
// work it is to compile and to simulate: live accumulators (register
// pressure), loop body length, helper functions, loop trips and block
// size (128-thread blocks, whose sweeps have twice the levels, go to the
// short bodies). The seed decides only the content — which accumulator each
// operation touches, the order of the operation classes, constants and
// load offsets — so two seeds give different programs of the same total
// size and a run's time does not depend on which seed it drew.
type shape struct {
	accs, body, helpers, trips, blockDim int
}

// shapes spans the generator's ranges (3–48 accumulators, 6–72 body
// operations, 0–2 helpers) once; the pairing is fixed so every seed sees
// the same mix of small, wide, long and call-heavy programs.
var shapes = []shape{
	{3, 6, 0, 7, 128}, {5, 12, 1, 6, 128}, {8, 18, 0, 5, 128},
	{10, 24, 2, 4, 128}, {12, 30, 1, 6, 256}, {14, 36, 0, 3, 256},
	{16, 42, 2, 5, 256}, {18, 48, 1, 4, 256}, {20, 54, 0, 3, 256},
	{24, 60, 2, 4, 256}, {28, 66, 1, 3, 256}, {32, 72, 0, 2, 256},
	{36, 20, 1, 6, 128}, {40, 40, 2, 3, 256}, {44, 56, 0, 2, 256},
	{48, 72, 1, 2, 256}, {26, 10, 2, 7, 128}, {6, 64, 0, 3, 256},
}

// Operation classes of the loop body, in the proportions of the generator
// in internal/core/random_test.go: a class list this long is repeated over
// the body and shuffled, so every program has the same mix.
const (
	opLoad = iota
	opCall
	opBranch
	opFP
	opIMAD
)

var classCycle = []int{opLoad, opCall, opBranch, opFP, opIMAD, opIMAD}

// generate writes one counted-loop kernel of the given shape as OASM text.
func generate(name string, sh shape, r *rand.Rand) string {
	var b strings.Builder
	acc := func(k int) int { return 10 + k%sh.accs }
	pick := func() int { return acc(r.Intn(sh.accs)) }

	fmt.Fprintf(&b, ".kernel %s\n.blockdim %d\n.func main\n", name, sh.blockDim)
	b.WriteString("  RDSP v0, WARPID\n  MOVI v1, 12\n  SHL v2, v0, v1\n  MOVI v3, 0\n  MOVI v4, 1\n")
	for k := 0; k < sh.accs; k++ {
		fmt.Fprintf(&b, "  MOVI v%d, %d\n", acc(k), r.Intn(1000))
	}
	classes := make([]int, sh.body)
	for j := range classes {
		classes[j] = classCycle[j%len(classCycle)]
	}
	r.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })

	b.WriteString("loop:\n")
	for j, class := range classes {
		x, y := pick(), pick()
		if class == opCall && sh.helpers == 0 {
			class = opIMAD
		}
		switch class {
		case opLoad:
			fmt.Fprintf(&b, "  IADD v7, v2, v3\n  LDG v8, [v7+%d]\n  XOR v%d, v%d, v8\n", r.Intn(64)*4, x, x)
		case opCall:
			fmt.Fprintf(&b, "  CALL v8, h%d, v%d\n  XOR v%d, v%d, v8\n", r.Intn(sh.helpers), x, x, x)
		case opBranch:
			fmt.Fprintf(&b, "  ISET.LT v8, v%d, v%d\n  CBR v8, skip%d\n  IADD v%d, v%d, v4\n  XOR v%d, v%d, v%d\nskip%d:\n",
				x, y, j, x, x, y, y, x, j)
		case opFP:
			fmt.Fprintf(&b, "  FMUL v8, v%d, v%d\n  FADD v%d, v%d, v8\n", x, y, x, x)
		default:
			fmt.Fprintf(&b, "  IMAD v%d, v%d, v4, v%d\n", x, x, y)
		}
	}
	fmt.Fprintf(&b, "  IADD v3, v3, v4\n  MOVI v8, %d\n  ISET.LT v9, v3, v8\n  CBR v9, loop\n", sh.trips)
	b.WriteString("  MOV v5, v10\n")
	for k := 1; k < sh.accs; k++ {
		fmt.Fprintf(&b, "  XOR v5, v5, v%d\n", acc(k))
	}
	b.WriteString("  STG [v2], v5\n  EXIT\n")

	for h := 0; h < sh.helpers; h++ {
		fmt.Fprintf(&b, ".func h%d args 1 ret\n", h)
		for j := 0; j < 3+h; j++ {
			fmt.Fprintf(&b, "  MOVI v%d, %d\n  IMAD v%d, v0, v%d, v%d\n", j+1, r.Intn(100), j+2, j+1, j+1)
		}
		fmt.Fprintf(&b, "  RET v%d\n", 1+r.Intn(3))
	}
	return b.String()
}

// acceptable is the set-up gate for a generated program: it parses,
// passes isa.Validate and carries no error-severity sa finding.
func acceptable(src string) (*isa.Program, error) {
	p, err := isa.Parse(src)
	if err != nil {
		return nil, err
	}
	if err := isa.Validate(p); err != nil {
		return nil, err
	}
	if n := sa.CountErrors(sa.Analyze(p)); n > 0 {
		return nil, fmt.Errorf("%s: %d static-analysis errors", p.Name, n)
	}
	return p, nil
}

// compilesEverywhere is the second half of the gate, applied to the batch
// programs: the program compiles on both devices with production defaults.
func compilesEverywhere(p *isa.Program) error {
	for _, d := range device.Both() {
		if _, err := core.NewRealizer(d, device.SmallCache).Compile(p, true); err != nil {
			return fmt.Errorf("%s on %s: %w", p.Name, d.Name, err)
		}
	}
	return nil
}

// draw generates program index i of a seed, re-drawing deterministically
// (attempt 1, 2, …) when the gate rejects a draw. The random stream
// depends only on (seed, i, attempt).
func draw(seed int64, i int, name string, gate func(*isa.Program) error) (string, *isa.Program, error) {
	var last error
	for attempt := 0; attempt < 8; attempt++ {
		r := rand.New(rand.NewSource(seed*1_000_003 + int64(i)*8191 + int64(attempt)))
		src := generate(name, shapes[i%len(shapes)], r)
		p, err := acceptable(src)
		if err == nil && gate != nil {
			err = gate(p)
		}
		if err == nil {
			return src, p, nil
		}
		last = err
	}
	return "", nil, fmt.Errorf("generator: no acceptable draw for %s: %w", name, last)
}

// input is one program handed to the program under test: the encoded
// binary and the OASM text, never the seed. The launch is the one its
// tune and sweep operations use.
type input struct {
	name   string
	bin    []byte // ORN1
	text   string
	grid   int
	iters  int
	kernel *kernels.Kernel // nil for generated programs
}

const generatedPrograms = 18

// paperGrid is a suite kernel's evaluation grid at the given scale, kept
// to whole blocks and at least four of them (the rule of bench.Suite).
func paperGrid(k *kernels.Kernel, scale float64) int {
	wpb := k.Prog.BlockDim / 32
	g := int(float64(k.GridWarps) * scale)
	if g < 4*wpb {
		g = 4 * wpb
	}
	return g / wpb * wpb
}

// generatedGrid is a generated program's grid: 1024 warps at the full
// scale of 0.25, scaled with it, in whole blocks and at least four.
func generatedGrid(p *isa.Program, scale float64) int {
	wpb := p.BlockDim / 32
	return max(4*wpb, int(1024*scale/fullSizes.GridScale)/wpb*wpb)
}

// programs builds the batch inputs of a seed: the suite kernels at their
// paper launch (grid scaled) followed by nGen generated programs at a
// 1024-warp grid (scaled the same way) and 8 iterations. Every program,
// suite kernels included, goes through the set-up gate.
func programs(seed int64, nGen int, gridScale float64) ([]input, error) {
	ks, err := kernels.All()
	if err != nil {
		return nil, err
	}
	var ins []input
	for _, k := range ks {
		if _, err := acceptable(k.Source); err != nil {
			return nil, err
		}
		ins = append(ins, input{
			name: k.Name, bin: isa.Encode(k.Prog), text: k.Source,
			grid: paperGrid(k, gridScale), iters: k.Iterations, kernel: k,
		})
	}
	for i := 0; i < nGen; i++ {
		name := fmt.Sprintf("gen%02d_s%d", i, seed)
		src, p, err := draw(seed, i, name, compilesEverywhere)
		if err != nil {
			return nil, err
		}
		ins = append(ins, input{name: name, bin: isa.Encode(p), text: src, grid: generatedGrid(p, gridScale), iters: 8})
	}
	return ins, nil
}
