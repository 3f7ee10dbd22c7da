package orion_test

import (
	"testing"

	orion "repro"
)

const apiKernel = `
.kernel api
.blockdim 256
.func main
  RDSP v0, WARPID
  MOVI v1, 12
  SHL v2, v0, v1
  MOVI v3, 0
  MOVI v4, 0
loop:
  IADD v5, v2, v3
  LDG v6, [v5]
  XOR v4, v4, v6
  MOVI v7, 128
  IADD v3, v3, v7
  MOVI v8, 2048
  ISET.LT v9, v3, v8
  CBR v9, loop
  STG [v2], v4
  EXIT
`

func TestPublicAPIRoundTrip(t *testing.T) {
	p, err := orion.ParseKernel(apiKernel)
	if err != nil {
		t.Fatalf("ParseKernel: %v", err)
	}
	if err := orion.ValidateKernel(p); err != nil {
		t.Fatalf("ValidateKernel: %v", err)
	}
	bin := orion.EncodeKernel(p)
	q, err := orion.DecodeKernel(bin)
	if err != nil {
		t.Fatalf("DecodeKernel: %v", err)
	}
	if orion.FormatKernel(q) != orion.FormatKernel(p) {
		t.Error("binary round trip changed the program")
	}
	a, _, err := orion.Execute(p, 8)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	b, _, err := orion.Execute(q, 8)
	if err != nil {
		t.Fatalf("Execute decoded: %v", err)
	}
	if a != b {
		t.Error("decoded binary computes a different result")
	}
}

// TestExecuteGridBounds: a negative grid is an error, not a panic, and an
// empty grid runs nothing.
func TestExecuteGridBounds(t *testing.T) {
	p, err := orion.ParseKernel(apiKernel)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := orion.Execute(p, -1); err == nil {
		t.Error("Execute accepted a grid of -1 warps")
	}
	if cks, steps, err := orion.Execute(p, 0); err != nil || cks != 0 || steps != 0 {
		t.Errorf("Execute on an empty grid = (%#x, %d, %v), want (0, 0, nil)", cks, steps, err)
	}
}

func TestPublicAPITune(t *testing.T) {
	p, err := orion.ParseKernel(apiKernel)
	if err != nil {
		t.Fatalf("ParseKernel: %v", err)
	}
	for _, d := range orion.Devices() {
		r := orion.NewRealizer(d, orion.SmallCache)
		rep, err := r.Tune(p, orion.Launch{GridWarps: 256, Iterations: 6})
		if err != nil {
			t.Fatalf("%s: Tune: %v", d.Name, err)
		}
		if rep.Chosen == nil || rep.Chosen.TargetWarps <= 0 {
			t.Errorf("%s: no selection", d.Name)
		}
		want, _, err := orion.Execute(p, 32)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := orion.Execute(rep.Chosen.Version.Prog, 32)
		if err != nil {
			t.Fatal(err)
		}
		if want != got {
			t.Errorf("%s: tuned binary changed semantics", d.Name)
		}
	}
}

func TestPublicAPIOccupancy(t *testing.T) {
	levels := orion.OccupancyLevels(orion.GTX680(), 256)
	if len(levels) != 8 || levels[7] != 64 {
		t.Errorf("levels = %v", levels)
	}
}

func TestPublicAPIBenchmarks(t *testing.T) {
	ks, err := orion.Benchmarks()
	if err != nil {
		t.Fatal(err)
	}
	if len(ks) != 14 {
		t.Errorf("benchmarks = %d, want 14", len(ks))
	}
	k, err := orion.Benchmark("cfd")
	if err != nil {
		t.Fatal(err)
	}
	ml, err := orion.MaxLive(k.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if ml < 50 {
		t.Errorf("cfd max-live = %d, want high pressure", ml)
	}
}
