package analytic

import (
	"testing"

	"repro/internal/device"
	"repro/internal/interp"
	"repro/internal/isa"
)

func TestPredictClassifiesMemoryBound(t *testing.T) {
	d := device.TeslaC2075()
	// Heavy memory mix at high occupancy: CWP saturates, memory bound.
	pr, err := Predict(Inputs{
		Dev: d, InstsPerWarp: 1000, MemInstsPerWarp: 300,
		ActiveWarpsPerSM: 48, TotalWarps: 48 * d.SMs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pr.Bound != MemoryBound {
		t.Errorf("bound = %v, want memory (MWP %.1f, CWP %.1f)", pr.Bound, pr.MWP, pr.CWP)
	}
}

func TestPredictClassifiesComputeBound(t *testing.T) {
	d := device.TeslaC2075()
	pr, err := Predict(Inputs{
		Dev: d, InstsPerWarp: 10000, MemInstsPerWarp: 2,
		ActiveWarpsPerSM: 48, TotalWarps: 48 * d.SMs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pr.Bound != ComputeBound {
		t.Errorf("bound = %v, want compute (MWP %.1f, CWP %.1f)", pr.Bound, pr.MWP, pr.CWP)
	}
}

func TestPredictMoreWarpsHelpUntilSaturation(t *testing.T) {
	d := device.GTX680()
	in := Inputs{Dev: d, InstsPerWarp: 800, MemInstsPerWarp: 80, TotalWarps: 4096}
	var prev float64
	improved := false
	for _, n := range []int{8, 16, 24, 32, 40, 48, 56, 64} {
		in.ActiveWarpsPerSM = n
		pr, err := Predict(in)
		if err != nil {
			t.Fatal(err)
		}
		if prev > 0 && pr.Cycles < prev*0.98 {
			improved = true
		}
		prev = pr.Cycles
	}
	if !improved {
		t.Error("prediction never improved with occupancy")
	}
}

func TestPredictErrors(t *testing.T) {
	if _, err := Predict(Inputs{}); err == nil {
		t.Error("empty inputs accepted")
	}
	if _, err := Predict(Inputs{Dev: device.GTX680(), ActiveWarpsPerSM: 8, TotalWarps: 8}); err == nil {
		t.Error("zero instruction counts accepted")
	}
}

func TestProfileCountsInstructions(t *testing.T) {
	src := `
.kernel prof
.blockdim 32
.func main
  RDSP v0, WARPID
  MOVI v1, 10
  SHL v2, v0, v1
  LDG v3, [v2]
  LDG v4, [v2+128]
  IADD v5, v3, v4
  STG [v2], v5
  EXIT
`
	p := isa.MustParse(src)
	insts, mems, err := Profile(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if insts != 8 {
		t.Errorf("insts/warp = %v, want 8", insts)
	}
	if mems != 3 {
		t.Errorf("mem insts/warp = %v, want 3 (2 loads + 1 store)", mems)
	}
}

// TestProfileRejectsOversizedFrame: a valid kernel whose frame exceeds
// the executor's register file is reported as an error, not a panic.
func TestProfileRejectsOversizedFrame(t *testing.T) {
	p := isa.MustParse(`
.kernel big
.blockdim 32
.func main
  MOVI v600, 1
  STG [v600], v600
  EXIT
`)
	if err := isa.Validate(p); err != nil {
		t.Fatalf("test premise broken: %v", err)
	}
	if _, _, err := Profile(p, 2); err == nil {
		t.Fatal("Profile accepted a frame larger than the register file")
	}
}

// TestProfileCountsLaneDivergence: Profile executes a lane-variant kernel
// lane-accurately, so both sides of a branch on LANEID parity count, as
// they do in interp.Run (11 instructions per warp; 10 if LANEID read 0).
func TestProfileCountsLaneDivergence(t *testing.T) {
	p := isa.MustParse(`
.kernel parity
.blockdim 32
.func main
  RDSP v0, LANEID
  MOVI v1, 1
  AND v2, v0, v1
  CBR v2, odd
  MOVI v3, 100
  BRA join
odd:
  MOVI v3, 200
join:
  MOVI v4, 2
  SHL v5, v0, v4
  STG [v5], v3
  EXIT
`)
	const warps = 2
	insts, _, err := Profile(p, warps)
	if err != nil {
		t.Fatal(err)
	}
	res, err := interp.Run(&interp.Launch{Prog: p, GridWarps: warps}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(res.Steps) / warps; insts != want {
		t.Errorf("Profile counts %v instructions per warp, interp.Run executes %v", insts, want)
	}
}
