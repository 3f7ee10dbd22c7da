package opt

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/interp"
	"repro/internal/isa"
	"repro/internal/verify"
)

// FuzzOpt decodes arbitrary binaries and, for every structurally valid
// program, runs the pass pipeline at each sweep budget, checking four
// invariants: the legality check rejects no schedule, the output validates,
// the store-stream oracle sees no semantic change, and a second run
// produces byte-identical output.
func FuzzOpt(f *testing.F) {
	for _, src := range []string{
		`
.kernel tiny
.blockdim 32
.func main
  RDSP v0, WARPID
  MOVI v1, 3
  IADD v2, v0, v1
  STG [v2], v1
  EXIT
`,
		`
.kernel loop
.blockdim 32
.func main
  RDSP v0, WARPID
  SHL v1, v0, v0
  LDG v2, [v1]
  MOVI v3, 0
  MOVI v4, 0
loop:
  IADD v5, v1, v4
  LDG v6, [v5]
  IADD v3, v3, v6
  MOVI v7, 1
  IADD v4, v4, v7
  MOVI v8, 4
  ISET.LT v9, v4, v8
  CBR v9, loop
  IADD v10, v3, v2
  STG [v1], v10
  EXIT
`,
	} {
		f.Add(isa.Encode(isa.MustParse(src)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := isa.Decode(data)
		if err != nil || isa.Validate(p) != nil || !optFuzzable(p) {
			return
		}
		for _, budget := range diffBudgets {
			np, err := diffOptProgram(p, budget)
			if errors.Is(err, errRejected) {
				t.Fatalf("budget %d: %v", budget, err)
			}
			if err != nil || np == nil {
				continue // the pipeline declined; the input is untouched
			}
			if err := isa.Validate(np); err != nil {
				t.Fatalf("budget %d: invalid output: %v", budget, err)
			}
			np2, err := diffOptProgram(p, budget)
			if err != nil || np2 == nil {
				t.Fatalf("budget %d: second run declined after the first succeeded", budget)
			}
			if !bytes.Equal(isa.Encode(np), isa.Encode(np2)) {
				t.Fatalf("budget %d: nondeterministic output", budget)
			}
			if layout, err := interp.NewLayout(np); err != nil || layout.RegHighWater > interp.RegFileSize {
				continue
			}
			if vs := verify.Differential(p, np, 0, 0); vs != nil {
				t.Fatalf("budget %d: %s: %s", budget, vs[0].Invariant, vs[0].Detail)
			}
		}
	})
}
