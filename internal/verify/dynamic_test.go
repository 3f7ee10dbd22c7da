package verify_test

import (
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/verify"
)

// TestBlockOracleRacePositions pins the exact dyn-shared-race report,
// instruction positions included: on the seeded defect, and on a race
// inside a callee, where a position must be the callee's own pc.
func TestBlockOracleRacePositions(t *testing.T) {
	ds, err := kernels.Defects()
	if err != nil {
		t.Fatal(err)
	}
	var race *isa.Program
	for _, d := range ds {
		if d.Name == "shared_race" {
			race = d.Prog
		}
	}
	if race == nil {
		t.Fatal("defect corpus has no shared_race")
	}
	callee := isa.MustParse(`.kernel callee_race
.shared 256
.blockdim 64
.func main
  RDSP v0, WARPINBLK
  MOVI v1, 4
  IMUL v2, v0, v1
  CALL v3, touch, v2
  STG [v2], v3
  EXIT
.func touch args 1 ret
  STS [v0], v0
  LDS v1, [v0+4]
  RET v1
`)
	for _, tc := range []struct {
		p    *isa.Program
		want []verify.Violation
	}{
		{race, []verify.Violation{{Invariant: "dyn-shared-race", Func: "main",
			Detail: "warp 0 main[4] bytes [4,7] overlaps warp 1 main[3] bytes [4,7] in barrier interval 0"}}},
		{callee, []verify.Violation{{Invariant: "dyn-shared-race", Func: "touch",
			Detail: "warp 0 touch[1] bytes [4,7] overlaps warp 1 touch[0] bytes [4,7] in barrier interval 0"}}},
	} {
		vs, err := verify.BlockOracle(tc.p, 1<<20)
		if err != nil {
			t.Fatalf("%s: %v", tc.p.Name, err)
		}
		if !reflect.DeepEqual(vs, tc.want) {
			t.Errorf("%s: got %#v\nwant %#v", tc.p.Name, vs, tc.want)
		}
	}
}
