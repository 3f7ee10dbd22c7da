package opt

import (
	"os"
	"strings"
	"testing"

	"repro/internal/isa"
)

// TestOpTable holds pureOp, which reads isa's opcode classes, to the
// per-opcode list it replaced, as ../isa/testdata/optable.golden records
// it.
func TestOpTable(t *testing.T) {
	data, err := os.ReadFile("../isa/testdata/optable.golden")
	if err != nil {
		t.Fatal(err)
	}
	ops := map[string]isa.Op{}
	for op := isa.OpInvalid + 1; op <= isa.OpExit; op++ {
		ops[op.String()] = op
	}
	checked := 0
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		// OpInvalid and bytes past the opcode set have no class: Validate
		// keeps them from the middle end.
		op, ok := isa.Op(0), false
		if len(f) == 15 {
			op, ok = ops[f[0]]
		}
		if !ok {
			continue
		}
		if got, want := pureOp(op), f[11] == "1"; got != want {
			t.Errorf("pureOp(%s) = %v, want %v", op, got, want)
		}
		checked++
	}
	if checked != 230 {
		t.Errorf("checked %d golden rows, want 230", checked)
	}
}
