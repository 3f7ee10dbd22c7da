package interp

import (
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/isa"
)

// TestOpTable holds the event classification both executors take from
// isa's opcode table (Event.resolve) to the Kind, Space and Bytes the
// per-opcode switches it replaced gave, as ../isa/testdata/optable.golden
// records them.
func TestOpTable(t *testing.T) {
	data, err := os.ReadFile("../isa/testdata/optable.golden")
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]Kind{"ALU": KindALU, "FPU": KindFPU, "load": KindLoad, "store": KindStore,
		"branch": KindBranch, "call": KindCall, "barrier": KindBarrier, "exit": KindExit}
	spaces := map[string]Space{"none": SpaceNone, "global": SpaceGlobal, "shared": SpaceShared, "local": SpaceLocal}
	ops := map[string]isa.Op{}
	for op := isa.OpInvalid + 1; op <= isa.OpExit; op++ {
		ops[op.String()] = op
	}
	checked := 0
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		// OpInvalid and bytes past the opcode set have no class: Validate
		// keeps them from the executors.
		op, ok := isa.Op(0), false
		if len(f) == 15 {
			op, ok = ops[f[0]]
		}
		if !ok {
			continue
		}
		w, _ := strconv.Atoi(f[1])
		bytes, _ := strconv.Atoi(f[14])
		in := isa.Instr{Op: op, Width: uint8(w), Dst: 1, Src: [3]isa.Reg{2, 3, 4}}
		ev := template(&in)
		if ev.Kind != kinds[f[12]] || ev.Space != spaces[f[13]] || ev.Bytes != bytes {
			t.Errorf("%s width %d: kind %d space %d bytes %d, want %s %s %d",
				op, w, ev.Kind, ev.Space, ev.Bytes, f[12], f[13], bytes)
		}
		checked++
	}
	if checked != 230 {
		t.Errorf("checked %d golden rows, want 230", checked)
	}
}
