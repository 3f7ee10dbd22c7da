package interp

import (
	"testing"

	"repro/internal/isa"
)

// TestSpillSlotBasesAcrossCalls: caller and callee both use spill slot 0;
// the layout must give them disjoint storage (the callee's slots are based
// above the caller's), so the caller's value survives the call.
func TestSpillSlotBasesAcrossCalls(t *testing.T) {
	for _, spill := range []struct {
		name     string
		st, ld   string
		setSlots func(f *isa.Function)
	}{
		{"shared", "SPST.S", "SPLD.S", func(f *isa.Function) { f.SpillShared = 1 }},
		{"local", "SPST.L", "SPLD.L", func(f *isa.Function) { f.SpillLocal = 1 }},
	} {
		t.Run(spill.name, func(t *testing.T) {
			src := `
.kernel sb
.blockdim 32
.func main
  MOVI v0, 111
  ` + spill.st + ` 0, v0
  MOVI v1, 5
  CALL v2, f, v1
  ` + spill.ld + ` v3, 0
  IADD v4, v3, v2
  MOVI v5, 64
  STG [v5], v4
  EXIT
.func f args 1 ret
  MOVI v1, 999
  ` + spill.st + ` 0, v1
  ` + spill.ld + ` v2, 0
  IADD v3, v2, v0
  RET v3
`
			p := isa.MustParse(src)
			spill.setSlots(p.Funcs[0])
			spill.setSlots(p.Funcs[1])
			res, err := Run(&Launch{Prog: p, GridWarps: 1}, 1000, nil)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			// f(5) = 999+5 = 1004; main: caller slot must still hold 111:
			// 111 + 1004 = 1115.
			var want uint64 = fnvOffset
			want = (want ^ 64) * fnvPrime
			want = (want ^ 1115) * fnvPrime
			want = MixWarpChecksum(0, want)
			if res.Checksum != want {
				t.Errorf("checksum %x, want %x (callee clobbered caller's %s spill slot?)",
					res.Checksum, want, spill.name)
			}
		})
	}
}

// TestLayoutSpillHighWater: spill-slot high-water across chains matches
// the sum along the worst chain.
func TestLayoutSpillHighWater(t *testing.T) {
	src := `
.kernel hw
.blockdim 32
.func main
  MOVI v0, 1
  SPST.S 0, v0
  SPST.S 1, v0
  CALL v1, a, v0
  STG [v0], v1
  EXIT
.func a args 1 ret
  SPST.S 0, v0
  CALL v1, b, v0
  RET v1
.func b args 1 ret
  SPST.S 0, v0
  SPST.S 1, v0
  SPST.S 2, v0
  RET v0
`
	p := isa.MustParse(src)
	p.Funcs[0].SpillShared = 2
	p.Funcs[1].SpillShared = 1
	p.Funcs[2].SpillShared = 3
	layout, err := NewLayout(p)
	if err != nil {
		t.Fatal(err)
	}
	if layout.SharedSpillSlots != 6 { // 2 + 1 + 3
		t.Errorf("shared spill high-water = %d, want 6", layout.SharedSpillSlots)
	}
}
