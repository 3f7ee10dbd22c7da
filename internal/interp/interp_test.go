package interp

import (
	"math"
	"testing"

	"repro/internal/isa"
)

func run(t *testing.T, src string, warps int) *Result {
	t.Helper()
	p, err := isa.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	res, err := Run(&Launch{Prog: p, GridWarps: warps}, 100000, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestArithmetic(t *testing.T) {
	// Compute (7+5)*3 - 6 = 30 and store it; verify via a kernel that
	// stores a comparison against the expected value.
	src := `
.kernel arith
.blockdim 32
.func main
  MOVI v0, 7
  MOVI v1, 5
  IADD v2, v0, v1
  MOVI v3, 3
  IMUL v4, v2, v3
  MOVI v5, 6
  ISUB v6, v4, v5
  MOVI v7, 30
  ISET.EQ v8, v6, v7
  MOVI v9, 4096
  STG [v9], v8
  EXIT
`
	res := run(t, src, 1)
	// A kernel storing value 1 at 4096 must have same checksum as the
	// direct construction.
	var want uint64 = fnvOffset
	want = (want ^ 4096) * fnvPrime
	want = (want ^ 1) * fnvPrime
	want = MixWarpChecksum(0, want)
	if res.Checksum != want {
		t.Errorf("checksum = %x, want %x (comparison failed in kernel)", res.Checksum, want)
	}
}

func TestFloatOps(t *testing.T) {
	src := `
.kernel fp
.blockdim 32
.func main
  MOVI v0, 1077936128   ; 3.0f
  MOVI v1, 1073741824   ; 2.0f
  FMUL v2, v0, v1       ; 6.0
  FADD v3, v2, v1       ; 8.0
  FSUB v4, v3, v0       ; 5.0
  FFMA v5, v0, v1, v4   ; 11.0
  FSET.GT v6, v5, v3    ; 1
  F2I v7, v5            ; 11
  MOVI v8, 8192
  STG [v8], v7
  STG [v8+4], v6
  EXIT
`
	res := run(t, src, 1)
	var want uint64 = fnvOffset
	want = (want ^ 8192) * fnvPrime
	want = (want ^ 11) * fnvPrime
	want = (want ^ 8196) * fnvPrime
	want = (want ^ 1) * fnvPrime
	want = MixWarpChecksum(0, want)
	if res.Checksum != want {
		t.Errorf("checksum = %x, want %x", res.Checksum, want)
	}
	if math.Float32bits(3.0) != 1077936128 || math.Float32bits(2.0) != 1073741824 {
		t.Fatal("test constants wrong")
	}
}

func TestLoopAndBranch(t *testing.T) {
	// Sum 0..9 = 45.
	src := `
.kernel loop
.blockdim 32
.func main
  MOVI v0, 0   ; i
  MOVI v1, 0   ; sum
  MOVI v2, 10
  MOVI v3, 1
top:
  IADD v1, v1, v0
  IADD v0, v0, v3
  ISET.LT v4, v0, v2
  CBR v4, top
  MOVI v5, 100
  STG [v5], v1
  EXIT
`
	res := run(t, src, 1)
	var want uint64 = fnvOffset
	want = (want ^ 100) * fnvPrime
	want = (want ^ 45) * fnvPrime
	want = MixWarpChecksum(0, want)
	if res.Checksum != want {
		t.Errorf("checksum = %x, want %x", res.Checksum, want)
	}
	if res.Steps != 4+4*10+3 {
		t.Errorf("steps = %d, want %d", res.Steps, 4+4*10+3)
	}
}

func TestCallsAndFrames(t *testing.T) {
	// square(x) = x*x via call; main computes square(6)+square(7) = 85.
	src := `
.kernel call
.blockdim 32
.func main
  MOVI v0, 6
  MOVI v1, 7
  CALL v2, square, v0
  CALL v3, square, v1
  IADD v4, v2, v3
  MOVI v5, 200
  STG [v5], v4
  EXIT
.func square args 1 ret
  IMUL v1, v0, v0
  RET v1
`
	res := run(t, src, 1)
	var want uint64 = fnvOffset
	want = (want ^ 200) * fnvPrime
	want = (want ^ 85) * fnvPrime
	want = MixWarpChecksum(0, want)
	if res.Checksum != want {
		t.Errorf("checksum = %x, want %x", res.Checksum, want)
	}
}

func TestNestedCallsPreserveCaller(t *testing.T) {
	// The callee writes its own registers; the caller's live registers
	// across the call must be unaffected (frames are disjoint pre-alloc).
	src := `
.kernel nest
.blockdim 32
.func main
  MOVI v0, 11
  MOVI v1, 22
  MOVI v2, 33
  CALL v3, chain, v0
  IADD v4, v1, v2     ; 55, must survive the call
  IADD v5, v4, v3
  MOVI v6, 300
  STG [v6], v5
  EXIT
.func chain args 1 ret
  MOVI v1, 1000
  CALL v2, leaf, v1
  IADD v3, v2, v0
  RET v3
.func leaf args 1 ret
  MOVI v1, 5
  IADD v2, v0, v1
  RET v2
`
	// leaf(1000)=1005; chain(11)=1016; main: 55+1016=1071.
	res := run(t, src, 1)
	var want uint64 = fnvOffset
	want = (want ^ 300) * fnvPrime
	want = (want ^ 1071) * fnvPrime
	want = MixWarpChecksum(0, want)
	if res.Checksum != want {
		t.Errorf("checksum = %x, want %x", res.Checksum, want)
	}
}

func TestSpecialRegisters(t *testing.T) {
	src := `
.kernel sp
.blockdim 64
.func main
  RDSP v0, WARPID
  RDSP v1, BLOCKID
  RDSP v2, WARPINBLK
  RDSP v3, WARPSPERBLK
  MOVI v4, 4
  SHL v5, v0, v4       ; warpid * 16
  STG [v5], v1
  STG [v5+4], v2
  STG [v5+8], v3
  EXIT
`
	res := run(t, src, 4) // 2 blocks of 2 warps
	var want uint64
	for w := 0; w < 4; w++ {
		var h uint64 = fnvOffset
		addr := uint64(w * 16)
		h = (h ^ addr) * fnvPrime
		h = (h ^ uint64(w/2)) * fnvPrime // block id
		h = (h ^ (addr + 4)) * fnvPrime
		h = (h ^ uint64(w%2)) * fnvPrime // warp in block
		h = (h ^ (addr + 8)) * fnvPrime
		h = (h ^ 2) * fnvPrime // warps per block
		want ^= MixWarpChecksum(w, h)
	}
	if res.Checksum != want {
		t.Errorf("checksum = %x, want %x", res.Checksum, want)
	}
}

func TestGlobalLoadsDeterministic(t *testing.T) {
	src := `
.kernel det
.blockdim 32
.func main
  MOVI v0, 512
  LDG v1, [v0]
  LDG v2, [v0+4]
  XOR v3, v1, v2
  STG [v0+64], v3
  EXIT
`
	a := run(t, src, 1)
	b := run(t, src, 1)
	if a.Checksum != b.Checksum {
		t.Error("global loads nondeterministic")
	}
	var want uint64 = fnvOffset
	want = (want ^ (512 + 64)) * fnvPrime
	want = (want ^ uint64(GlobalData(512)^GlobalData(516))) * fnvPrime
	want = MixWarpChecksum(0, want)
	if a.Checksum != want {
		t.Errorf("checksum = %x, want %x", a.Checksum, want)
	}
}

func TestSharedMemory(t *testing.T) {
	src := `
.kernel sh
.shared 256
.blockdim 32
.func main
  MOVI v0, 16
  MOVI v1, 777
  STS [v0], v1
  LDS v2, [v0]
  MOVI v3, 0
  STG [v3], v2
  EXIT
`
	res := run(t, src, 1)
	var want uint64 = fnvOffset
	want = (want ^ 0) * fnvPrime
	want = (want ^ 777) * fnvPrime
	want = MixWarpChecksum(0, want)
	if res.Checksum != want {
		t.Errorf("checksum = %x, want %x", res.Checksum, want)
	}
}

func TestSpillSlots(t *testing.T) {
	src := `
.kernel spill
.blockdim 32
.func main
  MOVI v0, 41
  MOVI v1, 59
  SPST.S 0, v0
  SPST.L 0, v1
  MOVI v0, 0
  MOVI v1, 0
  SPLD.S v2, 0
  SPLD.L v3, 0
  IADD v4, v2, v3
  MOVI v5, 128
  STG [v5], v4
  EXIT
`
	p := isa.MustParse(src)
	p.Entry().SpillShared = 1
	p.Entry().SpillLocal = 1
	res, err := Run(&Launch{Prog: p, GridWarps: 2}, 1000, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var one uint64 = fnvOffset
	one = (one ^ 128) * fnvPrime
	one = (one ^ 100) * fnvPrime
	// The per-warp mix keeps identical store streams from cancelling
	// under XOR: each warp contributes its stream hash bound to its ID.
	if want := MixWarpChecksum(0, one) ^ MixWarpChecksum(1, one); res.Checksum != want {
		t.Errorf("checksum = %x, want %x", res.Checksum, want)
	}
	// Single warp yields the concrete hash.
	res1, err := Run(&Launch{Prog: p, GridWarps: 1}, 1000, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res1.Checksum != MixWarpChecksum(0, one) {
		t.Errorf("checksum = %x, want %x", res1.Checksum, MixWarpChecksum(0, one))
	}
}

func TestWideOps(t *testing.T) {
	src := `
.kernel wide
.blockdim 32
.func main
  MOVI v0, 1024
  LDG.64 v2, [v0]
  MOV.64 v4, v2
  XOR v6, v4, v5
  STG [v0+32], v6
  EXIT
`
	res := run(t, src, 1)
	var want uint64 = fnvOffset
	want = (want ^ (1024 + 32)) * fnvPrime
	want = (want ^ uint64(GlobalData(1024)^GlobalData(1028))) * fnvPrime
	want = MixWarpChecksum(0, want)
	if res.Checksum != want {
		t.Errorf("checksum = %x, want %x", res.Checksum, want)
	}
}

func TestStepLimit(t *testing.T) {
	src := `
.kernel inf
.blockdim 32
.func main
top:
  BRA top
  EXIT
`
	p := isa.MustParse(src)
	_, err := Run(&Launch{Prog: p, GridWarps: 1}, 100, nil)
	if err == nil {
		t.Fatal("expected step-limit error")
	}
}

func TestKernelSplitOffsets(t *testing.T) {
	// Running warps [0,8) in one launch must equal running [0,4) and
	// [4,8) as two split launches (paper §3.4 kernel splitting).
	src := `
.kernel split
.blockdim 64
.func main
  RDSP v0, WARPID
  MOVI v1, 6
  SHL v2, v0, v1
  LDG v3, [v2]
  IADD v4, v3, v0
  STG [v2+16], v4
  EXIT
`
	p := isa.MustParse(src)
	full, err := Run(&Launch{Prog: p, GridWarps: 8}, 10000, nil)
	if err != nil {
		t.Fatalf("full: %v", err)
	}
	a, err := Run(&Launch{Prog: p, GridWarps: 4}, 10000, nil)
	if err != nil {
		t.Fatalf("a: %v", err)
	}
	b, err := Run(&Launch{Prog: p, GridWarps: 4, FirstWarp: 4}, 10000, nil)
	if err != nil {
		t.Fatalf("b: %v", err)
	}
	if got := a.Checksum ^ b.Checksum; got != full.Checksum {
		t.Errorf("split checksum %x != full %x", got, full.Checksum)
	}
}

func TestLayoutHighWater(t *testing.T) {
	src := `
.kernel hw
.blockdim 32
.func main
  MOVI v0, 1
  MOVI v9, 1
  CALL v1, a, v0
  CALL v2, b, v0
  EXIT
.func a args 1 ret
  MOVI v1, 2
  MOVI v4, 2
  CALL v2, b, v1
  RET v2
.func b args 1 ret
  MOVI v1, 3
  RET v1
`
	p := isa.MustParse(src)
	layout, err := NewLayout(p)
	if err != nil {
		t.Fatalf("NewLayout: %v", err)
	}
	// main uses v0..v9 (10 regs), a uses v0..v4 (5), b uses v0..v1 (2).
	// Deepest chain: main(10) + a(5) + b(2) = 17.
	if layout.RegHighWater != 17 {
		t.Errorf("RegHighWater = %d, want 17", layout.RegHighWater)
	}
}

func TestLayoutWithCallBounds(t *testing.T) {
	src := `
.kernel cb
.blockdim 32
.func main
  MOVI v0, 1
  MOVI v5, 2
  CALL v1, f, v0
  EXIT
.func f args 1 ret
  MOVI v1, 3
  RET v1
`
	p := isa.MustParse(src)
	// Pretend allocation compressed main's 6-slot frame to 3 live slots at
	// the call.
	p.Entry().Allocated = true
	p.Entry().FrameSlots = 6
	p.Entry().CallBounds = []int{3}
	f := p.FuncByName("f")
	f.Allocated = true
	f.FrameSlots = 2
	layout, err := NewLayout(p)
	if err != nil {
		t.Fatalf("NewLayout: %v", err)
	}
	if layout.RegHighWater != 6 { // max(main frame 6, 3+2=5)
		t.Errorf("RegHighWater = %d, want 6", layout.RegHighWater)
	}
}
