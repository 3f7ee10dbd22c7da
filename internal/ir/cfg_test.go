package ir

import (
	"reflect"
	"testing"

	"repro/internal/isa"
)

func mustFunc(t *testing.T, src string) *isa.Function {
	t.Helper()
	p, err := isa.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return p.Entry()
}

const diamondSrc = `
.kernel k
.blockdim 32
.func main
  MOVI v0, 1          ; b0
  ISET.GT v1, v0, v0
  CBR v1, right
  MOVI v2, 2          ; b1 (left)
  BRA join
right:
  MOVI v2, 3          ; b2
join:
  STG [v0], v2        ; b3
  EXIT
`

func TestBuildCFGDiamond(t *testing.T) {
	f := mustFunc(t, diamondSrc)
	cfg := BuildCFG(f)
	if len(cfg.Blocks) != 4 {
		t.Fatalf("blocks = %d, want 4", len(cfg.Blocks))
	}
	want := [][]int{{2, 1}, {3}, {3}, nil}
	for bi, b := range cfg.Blocks {
		if !reflect.DeepEqual(b.Succs, want[bi]) {
			t.Errorf("block %d succs = %v, want %v", bi, b.Succs, want[bi])
		}
	}
	if len(cfg.Blocks[3].Preds) != 2 {
		t.Errorf("join preds = %v, want 2", cfg.Blocks[3].Preds)
	}
	if cfg.RPO[0] != 0 {
		t.Errorf("RPO starts at %d, want 0", cfg.RPO[0])
	}
}

const loopSrc = `
.kernel k
.blockdim 32
.func main
  MOVI v0, 0      ; b0
  MOVI v1, 10
top:
  IADD v0, v0, v1 ; b1
  ISET.LT v2, v0, v1
  CBR v2, top
  STG [v0], v0    ; b2
  EXIT
`

func TestUnreachableBlocks(t *testing.T) {
	src := `
.kernel k
.blockdim 32
.func main
  MOVI v0, 1
  BRA out
  MOVI v1, 2     ; dead
  STG [v1], v1   ; dead
out:
  EXIT
`
	f := mustFunc(t, src)
	cfg := BuildCFG(f)
	reachable := 0
	for bi := range cfg.Blocks {
		if cfg.Reachable(bi) {
			reachable++
		}
	}
	if reachable != 2 {
		t.Errorf("reachable = %d, want 2", reachable)
	}
	if len(cfg.RPO) != 2 {
		t.Errorf("RPO = %v, want 2 blocks", cfg.RPO)
	}
}

func TestBitSet(t *testing.T) {
	b := NewBitSet(130)
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if !b.Has(0) || !b.Has(64) || !b.Has(129) || b.Has(1) {
		t.Error("set/has broken")
	}
	if b.Count() != 3 {
		t.Errorf("count = %d, want 3", b.Count())
	}
	var got []int
	b.ForEach(func(i int) { got = append(got, i) })
	if !reflect.DeepEqual(got, []int{0, 64, 129}) {
		t.Errorf("foreach = %v", got)
	}
	c := NewBitSet(130)
	c.Set(64)
	b.AndNotWith(c)
	if b.Has(64) || !b.Has(0) {
		t.Error("andnot broken")
	}
	if changed := b.OrWith(c); !changed || !b.Has(64) {
		t.Error("orwith broken")
	}
	if changed := b.OrWith(c); changed {
		t.Error("orwith reported spurious change")
	}
	b.Clear(0)
	if b.Has(0) {
		t.Error("clear broken")
	}
}
