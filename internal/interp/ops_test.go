package interp

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/isa"
)

// evalOp runs a two-operand op on constants and returns the result stored
// to a known address.
func evalOp(t *testing.T, mnem string, a, b uint32) uint32 {
	t.Helper()
	src := fmt.Sprintf(`
.kernel op
.blockdim 32
.func main
  MOVI v0, %d
  MOVI v1, %d
  %s v2, v0, v1
  MOVI v3, 64
  STG [v3], v2
  EXIT
`, int32(a), int32(b), mnem)
	p, err := isa.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	layout, err := NewLayout(p)
	if err != nil {
		t.Fatalf("layout: %v", err)
	}
	w, err := NewWarp(&Launch{Prog: p, GridWarps: 1}, layout, 0, nil)
	if err != nil {
		t.Fatalf("NewWarp: %v", err)
	}
	var stored uint32
	for !w.Done() {
		ev := w.Peek()
		if ev.Kind == KindStore {
			// Value is in the register feeding the store.
			stored = w.regs[ev.AbsSrc[1]]
		}
		if _, err := w.Step(); err != nil {
			t.Fatalf("step: %v", err)
		}
	}
	return stored
}

func fbits(f float32) uint32 { return math.Float32bits(f) }

func TestIntegerOps(t *testing.T) {
	cases := []struct {
		mnem string
		a, b uint32
		want uint32
	}{
		{"IADD", 7, 5, 12},
		{"ISUB", 7, 9, 0xFFFFFFFE},
		{"IMUL", 6, 7, 42},
		{"IMIN", 0xFFFFFFFF, 1, 0xFFFFFFFF}, // -1 < 1 signed
		{"IMAX", 0xFFFFFFFF, 1, 1},
		{"AND", 0b1100, 0b1010, 0b1000},
		{"OR", 0b1100, 0b1010, 0b1110},
		{"XOR", 0b1100, 0b1010, 0b0110},
		{"SHL", 3, 4, 48},
		{"SHL", 1, 33, 2}, // shift masked to 5 bits
		{"SHR", 0x80000000, 31, 1},
		{"ISET.LT", 3, 5, 1},
		{"ISET.LT", 5, 3, 0},
		{"ISET.GE", 5, 5, 1},
		{"ISET.NE", 5, 5, 0},
		{"ISET.EQ", 5, 5, 1},
		{"ISET.LE", 4, 5, 1},
		{"ISET.GT", 4, 5, 0},
		{"ISET.LT", 0xFFFFFFFF, 0, 1}, // signed: -1 < 0
	}
	for _, tc := range cases {
		if got := evalOp(t, tc.mnem, tc.a, tc.b); got != tc.want {
			t.Errorf("%s(%#x, %#x) = %#x, want %#x", tc.mnem, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestFloatBinaryOps(t *testing.T) {
	cases := []struct {
		mnem string
		a, b float32
		want float32
	}{
		{"FADD", 1.5, 2.25, 3.75},
		{"FSUB", 1.0, 3.0, -2.0},
		{"FMUL", 2.5, 4.0, 10.0},
		{"FMIN", 2.5, -4.0, -4.0},
		{"FMAX", 2.5, -4.0, 2.5},
	}
	for _, tc := range cases {
		if got := evalOp(t, tc.mnem, fbits(tc.a), fbits(tc.b)); got != fbits(tc.want) {
			t.Errorf("%s(%v, %v) = %#x, want %v", tc.mnem, tc.a, tc.b, got, tc.want)
		}
	}
	if got := evalOp(t, "FSET.LT", fbits(1), fbits(2)); got != 1 {
		t.Errorf("FSET.LT(1,2) = %d, want 1", got)
	}
	if got := evalOp(t, "FSET.GE", fbits(1), fbits(2)); got != 0 {
		t.Errorf("FSET.GE(1,2) = %d, want 0", got)
	}
}

func TestConversions(t *testing.T) {
	src := `
.kernel conv
.blockdim 32
.func main
  MOVI v0, -7
  I2F v1, v0
  F2I v2, v1
  MOVI v3, 0
  STG [v3], v2
  EXIT
`
	p := isa.MustParse(src)
	res, err := Run(&Launch{Prog: p, GridWarps: 1}, 1000, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var want uint64 = fnvOffset
	want = (want ^ 0) * fnvPrime
	want = (want ^ uint64(uint32(0xFFFFFFF9))) * fnvPrime // -7 round-trips
	want = MixWarpChecksum(0, want)
	if res.Checksum != want {
		t.Errorf("checksum %x, want %x", res.Checksum, want)
	}
}

func TestF2ISaturation(t *testing.T) {
	// NaN -> 0; +huge -> MaxInt32; -huge -> MinInt32.
	cases := []struct {
		in   float32
		want int32
	}{
		{float32(math.NaN()), 0},
		{float32(math.Inf(1)), math.MaxInt32},
		{float32(math.Inf(-1)), math.MinInt32},
		{1e30, math.MaxInt32},
		{-1e30, math.MinInt32},
		{42.9, 42},
		{-42.9, -42},
	}
	for _, tc := range cases {
		src := fmt.Sprintf(`
.kernel f2i
.blockdim 32
.func main
  MOVI v0, %d
  F2I v1, v0
  MOVI v2, 0
  STG [v2], v1
  EXIT
`, int32(math.Float32bits(tc.in)))
		p := isa.MustParse(src)
		res, err := Run(&Launch{Prog: p, GridWarps: 1}, 1000, nil)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		var want uint64 = fnvOffset
		want = (want ^ 0) * fnvPrime
		want = (want ^ uint64(uint32(tc.want))) * fnvPrime
		want = MixWarpChecksum(0, want)
		if res.Checksum != want {
			t.Errorf("F2I(%v): checksum %x, want value %d", tc.in, res.Checksum, tc.want)
		}
	}
}

func TestIMadAndMovI(t *testing.T) {
	src := `
.kernel mad
.blockdim 32
.func main
  MOVI v0, 6
  MOVI v1, 7
  MOVI v2, 100
  IMAD v3, v0, v1, v2
  MOVI v4, 0
  STG [v4], v3
  EXIT
`
	p := isa.MustParse(src)
	res, err := Run(&Launch{Prog: p, GridWarps: 1}, 1000, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var want uint64 = fnvOffset
	want = (want ^ 0) * fnvPrime
	want = (want ^ 142) * fnvPrime
	want = MixWarpChecksum(0, want)
	if res.Checksum != want {
		t.Errorf("IMAD checksum %x, want 142", res.Checksum)
	}
}

func TestFFmaChain(t *testing.T) {
	src := fmt.Sprintf(`
.kernel ffma
.blockdim 32
.func main
  MOVI v0, %d
  MOVI v1, %d
  MOVI v2, %d
  FFMA v3, v0, v1, v2
  MOVI v4, 0
  STG [v4], v3
  EXIT
`, int32(fbits(2)), int32(fbits(3)), int32(fbits(0.5)))
	p := isa.MustParse(src)
	res, err := Run(&Launch{Prog: p, GridWarps: 1}, 1000, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var want uint64 = fnvOffset
	want = (want ^ 0) * fnvPrime
	want = (want ^ uint64(fbits(6.5))) * fnvPrime
	want = MixWarpChecksum(0, want)
	if res.Checksum != want {
		t.Errorf("FFMA checksum %x, want 6.5", res.Checksum)
	}
}

func TestGlobalDataStable(t *testing.T) {
	// The pseudo-content function is part of the reproducibility contract:
	// fixed values here guard against accidental changes.
	if GlobalData(0) == GlobalData(4) {
		t.Error("adjacent words identical")
	}
	a := GlobalData(1024)
	for i := 0; i < 3; i++ {
		if GlobalData(1024) != a {
			t.Fatal("GlobalData not pure")
		}
	}
	// Word granularity: byte addresses within one word agree.
	if GlobalData(1025) != GlobalData(1024) {
		t.Error("sub-word addresses disagree")
	}
}
