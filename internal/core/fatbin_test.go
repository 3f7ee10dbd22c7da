package core

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"repro/internal/device"
	"repro/internal/interp"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/occupancy"
)

// sameVersion reports whether two versions agree on every field the
// multi-version binary stores, programs compared by fingerprint.
func sameVersion(a, b *Version) bool {
	return a.TargetWarps == b.TargetWarps && a.RegsPerThread == b.RegsPerThread &&
		a.SharedPerBlock == b.SharedPerBlock && a.LocalSlots == b.LocalSlots &&
		a.Moves == b.Moves && a.Natural == b.Natural &&
		fingerprintOf(a.Prog) == fingerprintOf(b.Prog)
}

// fatRefs returns a compile result's version references in wire order:
// the original (at its natural level), the candidates, the fail-safes.
func fatRefs(cr *CompileResult) []*Candidate {
	orig := &Candidate{Version: cr.Original, TargetWarps: cr.Original.Natural.ActiveWarps}
	return slices.Concat([]*Candidate{orig}, cr.Candidates, cr.FailSafe)
}

// TestFatBinaryRoundTrip: for every suite kernel on both devices and both
// cache configurations, the decoded binary holds the compile's versions
// field for field, the input program as Source, one *isa.Program per
// distinct fingerprint, and the candidates that alias the original still
// alias it.
func TestFatBinaryRoundTrip(t *testing.T) {
	ks, err := kernels.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ks {
		for _, d := range []*device.Device{device.GTX680(), device.TeslaC2075()} {
			for _, cache := range []device.CacheConfig{device.SmallCache, device.LargeCache} {
				name := fmt.Sprintf("%s/%s/%v", k.Name, d.Name, cache)
				cr, err := NewRealizer(d, cache).Compile(k.Prog, true)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got, err := DecodeFat(EncodeFat(cr))
				if err != nil {
					t.Fatalf("%s: decode: %v", name, err)
				}
				if got.MaxLive != cr.MaxLive || got.Direction != cr.Direction || got.StaticChoice != nil ||
					fingerprintOf(got.Source) != fingerprintOf(k.Prog) {
					t.Errorf("%s: metadata or source changed", name)
				}
				want, have := fatRefs(cr), fatRefs(got)
				if len(got.Candidates) != len(cr.Candidates) || len(have) != len(want) {
					t.Fatalf("%s: candidate counts changed", name)
				}
				byFP := map[isa.Fingerprint]*isa.Program{fingerprintOf(got.Source): got.Source}
				for i, w := range want {
					h := have[i]
					if h.TargetWarps != w.TargetWarps || !sameVersion(h.Version, w.Version) {
						t.Errorf("%s: version %d changed in the round trip", name, i)
					}
					if (w.Version == cr.Original) != (h.Version == got.Original) {
						t.Errorf("%s: version %d: aliasing of the original changed", name, i)
					}
					fp := fingerprintOf(h.Version.Prog)
					if held := byFP[fp]; held != nil && held != h.Version.Prog {
						t.Errorf("%s: version %d: two programs for one fingerprint", name, i)
					}
					byFP[fp] = h.Version.Prog
				}
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
// the OFAT container: a source, two programs held by three versions (a
// level clone of the high version shares its program: stored once), a
// candidate aliasing the original at a lower target (stored once), a
// fail-safe, and a static choice that is not a candidate.
func fatFixture(t testing.TB) *CompileResult {
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
		Source:       prog(".kernel a\n.blockdim 64\n.func main\n  MOVI v1, 7\n  STG [v1], v1\n  EXIT\n"),
		Original:     orig,
		Candidates:   []*Candidate{{Version: high, TargetWarps: 48}, {Version: cloneForTarget(high, 56), TargetWarps: 56}, {Version: orig, TargetWarps: 24}},
		FailSafe:     []*Candidate{{Version: orig, TargetWarps: 16}},
		StaticChoice: &Candidate{Version: orig, TargetWarps: 8},
	}
}

// TestFatBinaryFormat pins the OFAT bytes: -store directories and .ofat
// files persist them, so an encoder change must not move a byte. The hex
// was taken from the encoder that introduced the program table.
func TestFatBinaryFormat(t *testing.T) {
	const want = "" +
		"4f4641321500010300630000004f524e31010061000000004000000001000400" +
		"6d61696e0000020000000000000003000000170000000100ffffffffffff0700" +
		"0000000000001a000000000001000100ffff0000000000000000260000000000" +
		"ffffffffffff00000000000000000000630000004f524e310100610000000040" +
		"000000010004006d61696e0000010000000000000003000000170000000000ff" +
		"ffffffffff07000000000000001a000000000000000000ffff00000000000000" +
		"00260000000000ffffffffffff000000000000000000004f0000004f524e3101" +
		"00610800000040000000010004006d61696e0000010000000000000002000000" +
		"180000010000ffffffffffff0000000000000000260000000000ffffffffffff" +
		"0000000000000000000003000100200018000001000001000300000010002000" +
		"01000000000000e03f0200300010000801000000007011010018003000030000" +
		"00000000e83f0200380010000801000000007011010018003000030000000000" +
		"00e83f0000030001003000020038000000180001000000100000000800"
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
		back.Candidates[2].Version != back.Original || back.Original.Natural != cr.Original.Natural ||
		back.Candidates[1].Version.Prog != back.Candidates[0].Version.Prog ||
		back.Candidates[1].Version.TargetWarps != 56 || back.Source.Funcs[0].NumVRegs != cr.Source.Funcs[0].NumVRegs {
		t.Errorf("decoded fixture lost a field: %+v", back)
	}
}

// TestDecodeFatRejectsHugeProgramLength: a table entry that declares a
// program of 2³¹ bytes is rejected before anything is sized by it, also
// where an int is 32 bits and the length would turn negative.
func TestDecodeFatRejectsHugeProgramLength(t *testing.T) {
	le := binary.LittleEndian
	b := []byte(fatMagic)
	b = le.AppendUint16(b, 4)          // max-live
	b = append(b, byte(Increasing))    // direction
	b = le.AppendUint16(b, 1)          // one program
	b = le.AppendUint32(b, 0x80000000) // program length
	b = append(b, "ORN1"...)
	if _, err := DecodeFat(b); err == nil {
		t.Fatal("a program length of 2^31 was accepted")
	}
}

// overcounted is the format fixture cut after its version table, then the
// original's index and a candidate count of 0xFFFF that the 391 bytes
// cannot hold.
func overcounted(t testing.TB) []byte {
	le := binary.LittleEndian
	data := EncodeFat(fatFixture(t))
	off := len(fatMagic) + 3
	n := int(le.Uint16(data[off:]))
	for off += 2; n > 0; n-- {
		off += 4 + int(le.Uint32(data[off:]))
	}
	off += 2 + 29*int(le.Uint16(data[off:])) // 29 bytes per version
	return le.AppendUint16(le.AppendUint16(slices.Clip(data[:off]), 0), 0xFFFF)
}

// TestDecodeFatBoundsCounts: a candidate count is bounded by the bytes
// left before any Candidate is allocated, so the overcounted input costs
// about what it costs without the count (65 558 allocations, not 22, when
// the count sized the list).
func TestDecodeFatBoundsCounts(t *testing.T) {
	data := overcounted(t)
	if len(data) != 391 {
		t.Fatalf("input is %d bytes, want 391", len(data))
	}
	if _, err := DecodeFat(data); err == nil {
		t.Fatal("overcounted candidate list accepted")
	}
	with := testing.AllocsPerRun(10, func() { DecodeFat(data) })
	without := testing.AllocsPerRun(10, func() { DecodeFat(data[:len(data)-2]) })
	if with > 2*without {
		t.Errorf("DecodeFat made %.0f allocations, %.0f without the count", with, without)
	}
}

// FuzzDecodeFat: arbitrary bytes never panic the decoder, and a binary it
// accepts re-encodes to bytes that decode and re-encode to themselves.
// The first re-encoding may differ from the input: it drops table entries
// no version uses and merges entries with one fingerprint.
func FuzzDecodeFat(f *testing.F) {
	f.Add(EncodeFat(fatFixture(f)))
	f.Add(overcounted(f))
	k, err := kernels.ByName("gaussian")
	if err != nil {
		f.Fatal(err)
	}
	cr, err := NewRealizer(device.GTX680(), device.SmallCache).Compile(k.Prog, true)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(EncodeFat(cr))
	f.Fuzz(func(t *testing.T, data []byte) {
		cr, err := DecodeFat(data)
		if err != nil {
			return
		}
		once := EncodeFat(cr)
		back, err := DecodeFat(once)
		if err != nil {
			t.Fatalf("a re-encoded binary does not decode: %v", err)
		}
		if twice := EncodeFat(back); !bytes.Equal(twice, once) {
			t.Fatalf("re-encoding is not stable:\n%x\n%x", once, twice)
		}
	})
}
