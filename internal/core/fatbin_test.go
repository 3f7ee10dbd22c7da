package core

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/device"
	"repro/internal/interp"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/occupancy"
)

func TestFatBinaryRoundTrip(t *testing.T) {
	d := device.GTX680()
	r := NewRealizer(d, device.SmallCache)
	for _, name := range []string{"srad", "hotspot"} {
		k, err := kernels.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cr, err := r.Compile(k.Prog, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		data := EncodeFat(cr)
		got, err := DecodeFat(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if got.MaxLive != cr.MaxLive || got.Direction != cr.Direction {
			t.Errorf("%s: metadata mismatch: %d/%v vs %d/%v",
				name, got.MaxLive, got.Direction, cr.MaxLive, cr.Direction)
		}
		if len(got.Candidates) != len(cr.Candidates) || len(got.FailSafe) != len(cr.FailSafe) {
			t.Fatalf("%s: candidate counts changed", name)
		}
		for i, c := range cr.Candidates {
			g := got.Candidates[i]
			if g.TargetWarps != c.TargetWarps ||
				g.Version.RegsPerThread != c.Version.RegsPerThread ||
				g.Version.Natural != c.Version.Natural {
				t.Errorf("%s: candidate %d mismatch", name, i)
			}
			// Decoded binaries must execute identically.
			want, err := interp.Run(&interp.Launch{Prog: c.Version.Prog, GridWarps: 8}, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			have, err := interp.Run(&interp.Launch{Prog: g.Version.Prog, GridWarps: 8}, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if want.Checksum != have.Checksum {
				t.Errorf("%s: candidate %d binary changed semantics", name, i)
			}
		}
		// Version sharing must survive: decreasing candidates alias the
		// original binary, so the fat binary must not balloon.
		if cr.Direction == Decreasing && len(got.Candidates) > 0 {
			if got.Candidates[0].Version != got.Original {
				t.Errorf("%s: version sharing lost in round trip", name)
			}
		}
	}
}

func TestFatBinaryDrivesTuner(t *testing.T) {
	d := device.TeslaC2075()
	r := NewRealizer(d, device.SmallCache)
	k, err := kernels.ByName("gaussian")
	if err != nil {
		t.Fatal(err)
	}
	cr, err := r.Compile(k.Prog, true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFat(EncodeFat(cr))
	if err != nil {
		t.Fatal(err)
	}
	// The runtime side works purely from the decoded artifact.
	tuner := NewTuner(got)
	const grid = 672
	for i := 0; i < 8 && tuner.Finalized() == nil; i++ {
		cand := tuner.Next()
		if tuner.Finalized() != nil {
			break
		}
		st, err := cand.Version.RunAt(d, device.SmallCache, cand.TargetWarps,
			&interp.Launch{Prog: cand.Version.Prog, GridWarps: grid})
		if err != nil {
			t.Fatal(err)
		}
		tuner.Feedback(cand, float64(st.Cycles))
	}
	if tuner.Next() == nil {
		t.Fatal("tuner from decoded fat binary made no selection")
	}
}

func TestFatBinaryRejectsGarbage(t *testing.T) {
	if _, err := DecodeFat([]byte("nope")); err == nil {
		t.Error("garbage accepted")
	}
	d := device.GTX680()
	r := NewRealizer(d, device.SmallCache)
	k, _ := kernels.ByName("gaussian")
	cr, err := r.Compile(k.Prog, true)
	if err != nil {
		t.Fatal(err)
	}
	data := EncodeFat(cr)
	for _, n := range []int{3, 10, len(data) / 2, len(data) - 3} {
		if _, err := DecodeFat(data[:n]); err == nil {
			t.Errorf("truncation at %d accepted", n)
		}
	}
}

// fatFixture is a hand-built compile result that reaches every field of
// the OFAT container: two versions, a candidate aliasing the original at
// a lower target (stored once), a fail-safe, and a static choice that is
// not a candidate (stored as index -2).
func fatFixture(t *testing.T) *CompileResult {
	t.Helper()
	prog := func(src string) *isa.Program {
		p, err := isa.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	orig := &Version{
		Prog:        prog(".kernel a\n.blockdim 64\n.func main\n  MOVI v0, 7\n  STG [v0], v0\n  EXIT\n"),
		TargetWarps: 32, RegsPerThread: 24, SharedPerBlock: 256, LocalSlots: 1, Moves: 3,
		Natural: occupancy.Result{ActiveBlocks: 16, ActiveWarps: 32, Occupancy: 0.5, Limiter: occupancy.LimitWarps},
	}
	high := &Version{
		Prog:        prog(".kernel a\n.shared 8\n.blockdim 64\n.func main\n  RDSP v0, WARPID\n  EXIT\n"),
		TargetWarps: 48, RegsPerThread: 16, SharedPerBlock: 264, Moves: 70000,
		Natural: occupancy.Result{ActiveBlocks: 24, ActiveWarps: 48, Occupancy: 0.75, Limiter: occupancy.LimitRegisters},
	}
	return &CompileResult{
		MaxLive:      21,
		Direction:    Increasing,
		Original:     orig,
		Candidates:   []*Candidate{{Version: high, TargetWarps: 48}, {Version: orig, TargetWarps: 24}},
		FailSafe:     []*Candidate{{Version: orig, TargetWarps: 16}},
		StaticChoice: &Candidate{Version: orig, TargetWarps: 8},
	}
}

// TestFatBinaryFormat pins the OFAT bytes: -store directories and .ofat
// files persist them, so an encoder change must not move a byte. The hex
// was taken from the reflection-based encoder that wrote the format first.
func TestFatBinaryFormat(t *testing.T) {
	const want = "" +
		"4f464154150001feff0800020020001800000100000100030000001000200001" +
		"000000000000e03f630000004f524e310100610000000040000000010004006d" +
		"61696e0000010000000000000003000000170000000000ffffffffffff070000" +
		"00000000001a000000000000000000ffff0000000000000000260000000000ff" +
		"ffffffffff000000000000000000003000100008010000000070110100180030" +
		"0003000000000000e83f4f0000004f524e310100610800000040000000010004" +
		"006d61696e0000010000000000000002000000180000010000ffffffffffff00" +
		"00000000000000260000000000ffffffffffff00000000000000000000000002" +
		"000100300000001800010000001000"
	cr := fatFixture(t)
	data := EncodeFat(cr)
	if got := hex.EncodeToString(data); got != want {
		t.Fatalf("EncodeFat bytes changed:\ngot  %s\nwant %s", got, want)
	}
	back, err := DecodeFat(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(EncodeFat(back), data) {
		t.Error("decode then encode changed the bytes")
	}
	if back.StaticChoice.Version != back.Original || back.StaticChoice.TargetWarps != 8 ||
		back.Candidates[1].Version != back.Original || back.Original.Natural != cr.Original.Natural {
		t.Errorf("decoded fixture lost a field: %+v", back)
	}
}

// TestDecodeFatRejectsHugeProgramLength: a version that declares a
// program of 2³¹ bytes is rejected before anything is sized by it, also
// where an int is 32 bits and the length would turn negative.
func TestDecodeFatRejectsHugeProgramLength(t *testing.T) {
	le := binary.LittleEndian
	b := []byte(fatMagic)
	b = le.AppendUint16(b, 4)       // max-live
	b = append(b, byte(Increasing)) // direction
	b = le.AppendUint16(b, 0xFFFF)  // static index -1
	b = le.AppendUint16(b, 0)       // static target
	b = le.AppendUint16(b, 1)       // one version
	b = append(b, make([]byte, 2+2+4+2+4+2+2+1+8)...)
	b = le.AppendUint32(b, 0x80000000) // program length
	b = append(b, "ORN1"...)
	if _, err := DecodeFat(b); err == nil {
		t.Fatal("a program length of 2^31 was accepted")
	}
}
