package isa_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/isa"
	"repro/internal/sa"
)

// callOrderSrc exercises every shape the call order has to get right:
// callees at lower indices than their callers, a diamond (helper reached
// through left and through mid → right, at different call bounds), a
// barrier two calls below main (main → mid → leaf) in the lowest-index
// callee, and an unreachable function (orphan) whose call into helper must
// not count.
const callOrderSrc = `
.kernel callorder
.blockdim 64
.func main
  RDSP v0, WARPINBLK
  MOVI v1, 0
  ISET.EQ v2, v0, v1
  CBR v2, skip
  CALL _, left
  CALL _, mid
skip:
  STG [v0], v0
  EXIT
.func leaf
  BAR
  RET
.func helper
  MOVI v0, 1
  MOVI v1, 2
  IADD v2, v0, v1
  STG [v2], v0
  RET
.func left
  MOVI v0, 1
  MOVI v1, 2
  MOVI v2, 3
  MOVI v3, 4
  CALL _, helper
  IADD v0, v0, v1
  IADD v2, v2, v3
  STG [v2], v0
  RET
.func right
  MOVI v0, 1
  MOVI v1, 2
  MOVI v2, 3
  MOVI v3, 4
  MOVI v4, 5
  MOVI v5, 6
  CALL _, helper
  IADD v0, v0, v1
  IADD v2, v2, v3
  IADD v4, v4, v5
  IADD v0, v0, v2
  STG [v4], v0
  RET
.func mid
  MOVI v0, 1
  MOVI v1, 2
  CALL _, right
  CALL _, leaf
  STG [v0], v1
  RET
.func orphan
  MOVI v0, 1
  MOVI v1, 2
  MOVI v2, 3
  MOVI v3, 4
  MOVI v4, 5
  MOVI v5, 6
  MOVI v6, 7
  MOVI v7, 8
  MOVI v8, 9
  MOVI v9, 10
  CALL _, helper
  RET
`

// TestCallOrder pins Program.CallOrder — the one ordering of functions by
// calls — and, on the same program, the three single passes that walk it:
// interp.NewLayout's frame and spill bases (callers first), sa.Analyze's
// barrier reachability and core.MaxLive's chain sums (callees first).
func TestCallOrder(t *testing.T) {
	p := isa.MustParse(callOrderSrc)
	// Call bounds and spill counts by hand, as inter-procedural
	// allocation would set them: the diamond's two paths into helper
	// arrive at different heights, and orphan's is the tallest of all.
	bounds := map[string][]int{"main": {3, 2}, "left": {4}, "right": {5}, "mid": {1, 2}, "orphan": {10}}
	shared := map[string]int{"main": 2, "right": 1, "helper": 1}
	local := map[string]int{"main": 1, "left": 2, "mid": 1, "helper": 3, "orphan": 4}
	for _, f := range p.Funcs {
		f.CallBounds, f.SpillShared, f.SpillLocal = bounds[f.Name], shared[f.Name], local[f.Name]
	}
	if err := isa.Validate(p); err != nil {
		t.Fatalf("Validate: %v", err)
	}

	// Kahn over distinct edges: roots main and orphan in index order, then
	// each callee once its last caller is placed.
	order, err := p.CallOrder()
	var names []string
	for _, fi := range order {
		names = append(names, p.Funcs[fi].Name)
	}
	if want := "main orphan left mid right leaf helper"; err != nil || strings.Join(names, " ") != want {
		t.Errorf("CallOrder = %v, %v; want [%s]", names, err, want)
	}

	// helper sits at 3+5 registers through mid → right (not 3+4 through
	// left, nor 10 through orphan) and needs 3: 11. Its local base is
	// left's 1+2 and its shared base right's 2+1; orphan runs alone at 0.
	l, err := interp.NewLayout(p)
	if err != nil {
		t.Fatalf("NewLayout: %v", err)
	}
	if got, want := [3]int{l.RegHighWater, l.SharedSpillSlots, l.LocalSpillSlots}, [3]int{11, 4, 6}; got != want {
		t.Errorf("layout (registers, shared, local) = %v, want %v", got, want)
	}

	// Only the divergent call into mid reaches a BAR (in leaf, two calls
	// down); the divergent call into left does not.
	var bar []string
	for _, d := range sa.Analyze(p) {
		if d.Code == sa.CodeBarDiv {
			bar = append(bar, fmt.Sprintf("%s[%d]", d.Func, d.PC))
		}
	}
	if want := []string{"main[5]"}; !reflect.DeepEqual(bar, want) {
		t.Errorf("SA-BAR-DIV at %v, want %v", bar, want)
	}

	// The worst chain is main → mid → right → helper at 2+2+6+2; the
	// other way into helper, through left, is 2+4+2.
	if ml, err := core.MaxLive(p); err != nil || ml != 12 {
		t.Errorf("MaxLive = %d, %v; want 12", ml, err)
	}

	// A cycle (leaf calls back into mid) has no order, fails validation
	// and has no max-live.
	cyc := isa.MustParse(strings.Replace(callOrderSrc, "  BAR\n", "  BAR\n  CALL _, mid\n", 1))
	if order, err := cyc.CallOrder(); order != nil || !errors.Is(err, isa.ErrRecursion) {
		t.Errorf("cyclic CallOrder = %v, %v; want ErrRecursion", order, err)
	}
	if err := isa.Validate(cyc); !errors.Is(err, isa.ErrRecursion) {
		t.Errorf("cyclic Validate = %v, want ErrRecursion", err)
	}
	if _, err := core.MaxLive(cyc); !errors.Is(err, isa.ErrRecursion) {
		t.Errorf("cyclic MaxLive = %v, want ErrRecursion", err)
	}
}
