package interp

import (
	"fmt"
	"testing"

	"repro/internal/isa"
)

func runSIMT(t *testing.T, src string, warps int) *Result {
	t.Helper()
	p, err := isa.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !p.UsesLaneID() {
		t.Fatal("test kernel must read LANEID")
	}
	res, err := Run(&Launch{Prog: p, GridWarps: warps}, 500000, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestSIMTLaneVariantValues(t *testing.T) {
	// Each lane stores lane*2 at its own address: 32 stores per warp.
	src := `
.kernel lanes
.blockdim 32
.func main
  RDSP v0, LANEID
  MOVI v1, 1
  SHL v2, v0, v1     ; lane*2
  MOVI v3, 2
  SHL v4, v0, v3     ; lane*4 = address
  STG [v4], v2
  EXIT
`
	res := runSIMT(t, src, 1)
	if res.Stores != 32 {
		t.Fatalf("stores = %d, want 32", res.Stores)
	}
	var want uint64 = fnvOffset
	for lane := 0; lane < 32; lane++ {
		want = (want ^ uint64(lane*4)) * fnvPrime
		want = (want ^ uint64(lane*2)) * fnvPrime
	}
	want = MixWarpChecksum(0, want)
	if res.Checksum != want {
		t.Errorf("checksum %x, want %x", res.Checksum, want)
	}
}

func TestSIMTDivergenceAndReconvergence(t *testing.T) {
	// Even lanes take one path, odd lanes another; all reconverge and
	// store path-dependent values.
	src := `
.kernel div
.blockdim 32
.func main
  RDSP v0, LANEID
  MOVI v1, 1
  AND v2, v0, v1     ; lane parity
  MOVI v3, 0
  ISET.NE v4, v2, v3
  CBR v4, odd
  MOVI v5, 100       ; even path
  BRA join
odd:
  MOVI v5, 200
join:
  IADD v6, v5, v0    ; reconverged: uses the per-lane v5
  MOVI v7, 2
  SHL v8, v0, v7
  STG [v8], v6
  EXIT
`
	res := runSIMT(t, src, 1)
	var want uint64 = fnvOffset
	for lane := 0; lane < 32; lane++ {
		base := 100
		if lane%2 == 1 {
			base = 200
		}
		want = (want ^ uint64(lane*4)) * fnvPrime
		want = (want ^ uint64(base+lane)) * fnvPrime
	}
	want = MixWarpChecksum(0, want)
	if res.Checksum != want {
		t.Errorf("checksum %x, want %x", res.Checksum, want)
	}
}

func TestSIMTDivergentLoop(t *testing.T) {
	// Lane l iterates l+1 times: the MinPC scheduler must keep looping
	// lanes running while finished lanes wait, then reconverge.
	src := `
.kernel dloop
.blockdim 32
.func main
  RDSP v0, LANEID
  MOVI v1, 0        ; i
  MOVI v2, 0        ; acc
  MOVI v3, 1
top:
  IADD v2, v2, v3
  IADD v1, v1, v3
  ISET.LE v4, v1, v0
  CBR v4, top
  MOVI v5, 2
  SHL v6, v0, v5
  STG [v6], v2
  EXIT
`
	res := runSIMT(t, src, 1)
	var want uint64 = fnvOffset
	for lane := 0; lane < 32; lane++ {
		want = (want ^ uint64(lane*4)) * fnvPrime
		want = (want ^ uint64(lane+1)) * fnvPrime
	}
	want = MixWarpChecksum(0, want)
	if res.Checksum != want {
		t.Errorf("checksum %x, want %x", res.Checksum, want)
	}
}

func TestSIMTCoalescingDetection(t *testing.T) {
	// Coalesced: all lanes in one 128B line -> 1 line. Strided by 128:
	// 32 distinct lines.
	coalesced := `
.kernel co
.blockdim 32
.func main
  RDSP v0, LANEID
  MOVI v1, 2
  SHL v2, v0, v1
  LDG v3, [v2]
  STG [v2], v3
  EXIT
`
	p := isa.MustParse(coalesced)
	layout, err := NewLayout(p)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWarp(&Launch{Prog: p, GridWarps: 1}, layout, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var loadLines, storeLines int
	for !w.Done() {
		ev := w.Peek()
		if ev.Kind == KindLoad && ev.Space == SpaceGlobal {
			loadLines = len(ev.Lane.Lines)
		}
		if ev.Kind == KindStore && ev.Space == SpaceGlobal {
			storeLines = len(ev.Lane.Lines)
		}
		if _, err := w.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if loadLines != 1 || storeLines != 1 {
		t.Errorf("coalesced access spans %d/%d lines, want 1/1", loadLines, storeLines)
	}

	strided := `
.kernel str
.blockdim 32
.func main
  RDSP v0, LANEID
  MOVI v1, 7
  SHL v2, v0, v1
  LDG v3, [v2]
  STG [v2], v3
  EXIT
`
	p2 := isa.MustParse(strided)
	layout2, err := NewLayout(p2)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := NewWarp(&Launch{Prog: p2, GridWarps: 1}, layout2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	maxLines := 0
	for !w2.Done() {
		ev := w2.Peek()
		if ev.Lane != nil && len(ev.Lane.Lines) > maxLines {
			maxLines = len(ev.Lane.Lines)
		}
		if _, err := w2.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if maxLines != 32 {
		t.Errorf("strided access spans %d lines, want 32", maxLines)
	}
}

func TestSIMTRejectsCalls(t *testing.T) {
	src := `
.kernel bad
.blockdim 32
.func main
  RDSP v0, LANEID
  CALL v1, f, v0
  STG [v0], v1
  EXIT
.func f args 1 ret
  RET v0
`
	p := isa.MustParse(src)
	layout, err := NewLayout(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWarp(&Launch{Prog: p, GridWarps: 1}, layout, 0, nil); err == nil {
		t.Error("lane-variant warp accepted a program with calls")
	}
}

func TestSIMTBarrierRequiresConvergence(t *testing.T) {
	src := `
.kernel badbar
.blockdim 32
.func main
  RDSP v0, LANEID
  MOVI v1, 16
  ISET.LT v2, v0, v1
  CBR v2, low
  BAR
  BRA out
low:
  BAR
out:
  STG [v0], v0
  EXIT
`
	p := isa.MustParse(src)
	_, err := Run(&Launch{Prog: p, GridWarps: 1}, 10000, nil)
	if err == nil {
		t.Error("divergent barrier accepted")
	}
}

func TestSIMTMatchesScalarOnUniformKernel(t *testing.T) {
	// A kernel whose behaviour is lane-uniform except for addresses: with
	// lane-invariant stores... instead check determinism and that adding
	// an unused LANEID read flips the engine without changing per-warp
	// instruction semantics of uniform code paths.
	src := `
.kernel uni
.blockdim 32
.func main
  RDSP v9, LANEID
  RDSP v0, WARPID
  MOVI v1, 10
  SHL v2, v0, v1
  LDG v3, [v2]
  XOR v4, v3, v0
  STG [v2], v4
  EXIT
`
	a := runSIMT(t, src, 4)
	b := runSIMT(t, src, 4)
	if a.Checksum != b.Checksum {
		t.Error("SIMT execution nondeterministic")
	}
	// Uniform addresses: every lane stores the same (addr, value), so the
	// checksum equals 32 consecutive identical store hashes per warp.
	if a.Stores != 4*32 {
		t.Errorf("stores = %d, want 128", a.Stores)
	}
}

func TestSIMTBankConflicts(t *testing.T) {
	// Each lane reads byte address (LANEID & mask) << shift.
	run := func(mask, shift int) int {
		src := fmt.Sprintf(`
.kernel bank
.shared 8192
.blockdim 32
.func main
  RDSP v0, LANEID
  MOVI v4, %d
  AND v5, v0, v4
  MOVI v1, %d
  SHL v2, v5, v1
  LDS v3, [v2]
  STG [v2], v3
  EXIT
`, mask, shift)
		p := isa.MustParse(src)
		layout, err := NewLayout(p)
		if err != nil {
			t.Fatal(err)
		}
		shared := make([]uint32, 2048)
		w, err := NewWarp(&Launch{Prog: p, GridWarps: 1}, layout, 0, shared)
		if err != nil {
			t.Fatal(err)
		}
		worst := 0
		for !w.Done() {
			ev := w.Peek()
			if ev.Space == SpaceShared && ev.Lane != nil && ev.Lane.BankConflicts > worst {
				worst = ev.Lane.BankConflicts
			}
			if _, err := w.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return worst
	}
	// shift 2: lane*4 bytes -> 32 distinct banks, conflict-free.
	if got := run(31, 2); got != 1 {
		t.Errorf("sequential access: conflicts = %d, want 1", got)
	}
	// shift 7: lane*128 bytes -> every lane hits bank 0: 32-way conflict.
	if got := run(31, 7); got != 32 {
		t.Errorf("128-stride access: conflicts = %d, want 32", got)
	}
	// shift 0: every lane reads the same word -> broadcast, conflict-free.
	if got := run(31, 0); got != 1 {
		t.Errorf("broadcast access: conflicts = %d, want 1", got)
	}
	// Lanes alternate between words 0 and 32, both on bank 0: two distinct
	// words, so a 2-way conflict however often the bank switches between them.
	if got := run(1, 7); got != 2 {
		t.Errorf("alternating two-word access: conflicts = %d, want 2", got)
	}
}
