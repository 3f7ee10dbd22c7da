package isa

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestBinaryRoundTrip(t *testing.T) {
	p := parseSample(t)
	p.Funcs[0].Allocated = true
	p.Funcs[0].FrameSlots = 13
	p.Funcs[0].SpillShared = 2
	p.Funcs[0].SpillLocal = 1
	p.Funcs[0].CallBounds = []int{5}
	data := Encode(p)
	q, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if q.Name != p.Name || q.SharedBytes != p.SharedBytes || q.BlockDim != p.BlockDim {
		t.Errorf("header mismatch: %+v vs %+v", q, p)
	}
	if len(q.Funcs) != len(p.Funcs) {
		t.Fatalf("func count %d vs %d", len(q.Funcs), len(p.Funcs))
	}
	for i := range p.Funcs {
		a, b := p.Funcs[i], q.Funcs[i]
		if a.Name != b.Name || a.NumArgs != b.NumArgs || a.HasRet != b.HasRet ||
			a.NumVRegs != b.NumVRegs || a.Allocated != b.Allocated ||
			a.FrameSlots != b.FrameSlots || a.SpillShared != b.SpillShared ||
			a.SpillLocal != b.SpillLocal {
			t.Errorf("func %d metadata mismatch: %+v vs %+v", i, a, b)
		}
		if !reflect.DeepEqual(a.CallBounds, b.CallBounds) {
			t.Errorf("func %d call bounds %v vs %v", i, a.CallBounds, b.CallBounds)
		}
		for j := range a.Instrs {
			x, y := a.Instrs[j], b.Instrs[j]
			x.Label, y.Label = "", ""
			if x != y {
				t.Errorf("func %d instr %d: %+v vs %+v", i, j, x, y)
			}
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte("XXXX")); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := Decode(nil); err == nil {
		t.Error("empty input accepted")
	}
	p := parseSample(t)
	data := Encode(p)
	for _, n := range []int{5, 10, len(data) / 2, len(data) - 1} {
		if _, err := Decode(data[:n]); err == nil {
			t.Errorf("truncation at %d accepted", n)
		}
	}
	// A field above math.MaxInt32 is implausible on every word size (on a
	// 32-bit platform it used to turn negative and reach make).
	header := 4 + 2 + len(p.Name)
	instrCount := header + 4 + 4 + 2 + 2 + len(p.Entry().Name) + 1 + 1 + 4*2
	for _, tc := range []struct {
		off  int
		want string
	}{
		{header, "isa: implausible shared size 4294967295"},
		{header + 4, "isa: implausible block dim 4294967295"},
		{instrCount, "isa: implausible instruction count 4294967295"},
	} {
		b := append([]byte(nil), data...)
		copy(b[tc.off:], []byte{0xff, 0xff, 0xff, 0xff})
		if _, err := Decode(b); err == nil || err.Error() != tc.want {
			t.Errorf("offset %d: err = %v, want %q", tc.off, err, tc.want)
		}
	}
}

// randomProgram builds a structurally valid random program for the
// encode/decode property test.
func randomProgram(r *rand.Rand) *Program {
	nf := 1 + r.Intn(4)
	p := &Program{
		Name:        "rnd",
		SharedBytes: r.Intn(4096),
		BlockDim:    32 * (1 + r.Intn(8)),
		Funcs:       make([]*Function, nf),
	}
	for fi := range p.Funcs {
		f := &Function{Name: "f" + string(rune('a'+fi))}
		if fi > 0 {
			f.NumArgs = r.Intn(3)
			f.HasRet = r.Intn(2) == 0
		}
		ni := 1 + r.Intn(30)
		for i := 0; i < ni; i++ {
			var in Instr
			switch r.Intn(8) {
			case 0:
				in = Instr{Op: OpIAdd, Dst: Reg(r.Intn(20)), Src: [3]Reg{Reg(r.Intn(20)), Reg(r.Intn(20)), RegNone}}
			case 1:
				in = Instr{Op: OpMovI, Dst: Reg(r.Intn(20)), Imm: int32(r.Uint32())}
			case 2:
				in = Instr{Op: OpLdG, Width: uint8(2 * r.Intn(2)), Dst: Reg(2 * r.Intn(10)), Src: [3]Reg{Reg(r.Intn(20)), RegNone, RegNone}, Imm: int32(r.Intn(256))}
			case 3:
				in = Instr{Op: OpStG, Src: [3]Reg{Reg(r.Intn(20)), Reg(r.Intn(20)), RegNone}}
			case 4:
				in = Instr{Op: OpBra, Tgt: int32(r.Intn(ni))}
			case 5:
				in = Instr{Op: OpCbr, Src: [3]Reg{Reg(r.Intn(20)), RegNone, RegNone}, Tgt: int32(r.Intn(ni))}
			case 6:
				in = Instr{Op: OpISet, Cmp: Cmp(1 + r.Intn(6)), Dst: Reg(r.Intn(20)), Src: [3]Reg{Reg(r.Intn(20)), Reg(r.Intn(20)), RegNone}}
			default:
				in = Instr{Op: OpFFma, Dst: Reg(r.Intn(20)), Src: [3]Reg{Reg(r.Intn(20)), Reg(r.Intn(20)), Reg(r.Intn(20))}}
			}
			for s := in.NumSrcs(); s < 3; s++ {
				in.Src[s] = RegNone
			}
			f.Instrs = append(f.Instrs, in)
		}
		if fi == 0 {
			f.Instrs = append(f.Instrs, Instr{Op: OpExit, Src: [3]Reg{RegNone, RegNone, RegNone}})
		} else {
			ret := Instr{Op: OpRet, Src: [3]Reg{RegNone, RegNone, RegNone}}
			if f.HasRet {
				ret.Src[0] = Reg(r.Intn(20))
			}
			f.Instrs = append(f.Instrs, ret)
		}
		f.NumVRegs = countVRegs(f)
		p.Funcs[fi] = f
	}
	return p
}

func TestBinaryRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	prop := func() bool {
		p := randomProgram(r)
		q, err := Decode(Encode(p))
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		if len(q.Funcs) != len(p.Funcs) {
			return false
		}
		for i := range p.Funcs {
			if len(q.Funcs[i].Instrs) != len(p.Funcs[i].Instrs) {
				return false
			}
			for j := range p.Funcs[i].Instrs {
				x, y := p.Funcs[i].Instrs[j], q.Funcs[i].Instrs[j]
				x.Label, y.Label = "", ""
				if x != y {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestTextRoundTripProperty(t *testing.T) {
	// Parse(Format(p)) must reproduce the instruction stream for random
	// branch-heavy programs.
	r := rand.New(rand.NewSource(7))
	prop := func() bool {
		p := randomProgram(r)
		text := Format(p)
		q, err := Parse(text)
		if err != nil {
			t.Logf("reparse: %v\n%s", err, text)
			return false
		}
		for i := range p.Funcs {
			if len(q.Funcs[i].Instrs) != len(p.Funcs[i].Instrs) {
				return false
			}
			for j := range p.Funcs[i].Instrs {
				x, y := p.Funcs[i].Instrs[j], q.Funcs[i].Instrs[j]
				x.Label, y.Label = "", ""
				if x != y {
					t.Logf("func %d instr %d: %+v vs %+v", i, j, x, y)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
