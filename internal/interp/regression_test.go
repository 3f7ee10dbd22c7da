package interp

import (
	"testing"

	"repro/internal/isa"
)

// TestCallArgsCopiedInParallel pins the ABI fix for lazily-compressed call
// frames: when CallBounds places the callee frame at the caller's current
// stack height, the argument window can overlap the very registers the
// arguments are read from. A sequential copy reads an already-overwritten
// value; the interpreter must read all sources before writing any.
func TestCallArgsCopiedInParallel(t *testing.T) {
	src := `
.kernel argclobber
.blockdim 32
.func main
  MOVI v0, 10
  MOVI v1, 20
  CALL v2, f, v1, v0
  MOVI v3, 64
  STG [v3], v2
  EXIT
.func f args 2 ret
  ISUB v2, v0, v1
  RET v2
`
	p := isa.MustParse(src)
	main := p.Entry()
	main.Allocated = true
	main.FrameSlots = main.NumVRegs
	// Height 0: the callee frame aliases the caller's v0/v1 exactly where
	// the argument sources live.
	main.CallBounds = []int{0}
	f := p.FuncByName("f")
	f.Allocated = true
	f.FrameSlots = f.NumVRegs
	if err := isa.Validate(p); err != nil {
		t.Fatalf("test program invalid: %v", err)
	}
	res, err := Run(&Launch{Prog: p, GridWarps: 1}, 1000, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// f(20, 10) = 20 - 10 = 10; a sequential arg copy yields f(20, 20) = 0.
	var want uint64 = fnvOffset
	want = (want ^ 64) * fnvPrime
	want = (want ^ 10) * fnvPrime
	want = MixWarpChecksum(0, want)
	if res.Checksum != want {
		t.Errorf("checksum = %x, want %x (argument window clobbered?)", res.Checksum, want)
	}
}

// TestRunRejectsOversizedFrame pins the launch-time register-file guard:
// an entry frame larger than the whole file must fail cleanly instead of
// indexing past the register slice.
func TestRunRejectsOversizedFrame(t *testing.T) {
	src := `
.kernel big
.blockdim 32
.func main
  MOVI v600, 1
  STG [v600], v600
  EXIT
`
	p := isa.MustParse(src)
	if p.Entry().NumVRegs <= RegFileSize {
		t.Fatalf("test premise broken: frame %d fits the file", p.Entry().NumVRegs)
	}
	if _, err := Run(&Launch{Prog: p, GridWarps: 1}, 1000, nil); err == nil {
		t.Fatal("expected register-file overflow error, got nil")
	}
}
