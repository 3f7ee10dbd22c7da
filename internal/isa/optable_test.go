package isa

import (
	"bufio"
	"bytes"
	"os"
	"strconv"
	"strings"
	"testing"
)

// goldenRow is one line of testdata/optable.golden: an instruction and what
// the per-opcode switches the table replaced answered for it.
type goldenRow struct {
	in                     Instr
	dst                    bool
	nsrc                   int
	srcW                   [3]int
	mem, spill, term, pure bool
	kind, space            string
	bytes                  int
}

// readOpTableGolden parses testdata/optable.golden (see its header).
func readOpTableGolden(t *testing.T) []goldenRow {
	t.Helper()
	data, err := os.ReadFile("testdata/optable.golden")
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Op{}
	for o := 0; o < 256; o++ {
		byName[Op(o).String()] = Op(o)
	}
	var rows []goldenRow
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if len(f) != 15 {
			t.Fatalf("golden line %q: %d fields, want 15", sc.Text(), len(f))
		}
		n := make([]int, 15)
		for i := 1; i < 15; i++ {
			n[i], _ = strconv.Atoi(f[i])
		}
		op, ok := byName[f[0]]
		if !ok {
			t.Fatalf("golden line %q: unknown op", sc.Text())
		}
		in := Instr{Op: op, Width: uint8(n[1]), Dst: 1, Src: [3]Reg{2, 3, 4}}
		switch v := f[2]; {
		case op == OpCall:
			if v[0] == '_' {
				in.Dst = RegNone
			}
			for i := int(v[1] - '0'); i < 3; i++ {
				in.Src[i] = RegNone
			}
		case op == OpRet:
			in.Dst, in.Src = RegNone, [3]Reg{2, RegNone, RegNone}
			if v == "_" {
				in.Src[0] = RegNone
			}
		}
		rows = append(rows, goldenRow{
			in: in, dst: n[3] == 1, nsrc: n[4], srcW: [3]int{n[5], n[6], n[7]},
			mem: n[8] == 1, spill: n[9] == 1, term: n[10] == 1, pure: n[11] == 1,
			kind: f[12], space: f[13], bytes: n[14],
		})
	}
	return rows
}

// TestOpTable holds the table-driven operand queries and Class/Space to
// the answers of the switches they replaced, and round-trips one
// instruction per opcode and width through FormatInstr and Parse.
func TestOpTable(t *testing.T) {
	classes := map[string]opClass{"ALU": classALU, "FPU": classFPU, "load": classLoad,
		"store": classStore, "branch": classBranch, "call": classCall,
		"barrier": classBarrier, "exit": classExit}
	spaces := map[string]memSpace{"none": spaceNone, "global": spaceGlobal,
		"shared": spaceShared, "local": spaceLocal}
	rows := readOpTableGolden(t)
	if len(rows) != 240 {
		t.Fatalf("%d golden rows, want 240", len(rows))
	}
	for _, r := range rows {
		in := r.in
		got := goldenRow{in: in, dst: in.HasDst(), nsrc: in.NumSrcs(),
			srcW: [3]int{in.SrcWidth(0), in.SrcWidth(1), in.SrcWidth(2)},
			mem:  in.IsMem(), spill: in.IsSpill(), term: in.Terminates(),
			pure: r.pure, kind: r.kind, space: r.space, bytes: r.bytes}
		if got != r {
			t.Errorf("%s width %d %v: queries %+v, want %+v", in.Op, in.Width, in.Src, got, r)
		}
		// OpInvalid and bytes past the opcode set have no class: Validate
		// keeps them from the executors and the middle end.
		if in.Op == OpInvalid || in.Op >= opMax {
			continue
		}
		if in.Op.Class() != classes[r.kind] || in.Op.Space() != spaces[r.space] {
			t.Errorf("%s: class %d space %d, want %s %s", in.Op, in.Op.Class(), in.Op.Space(), r.kind, r.space)
		}
	}

	for op := OpInvalid + 1; op < opMax; op++ {
		for w := uint8(0); w <= 4; w++ {
			in := Instr{Op: op, Width: w, Cmp: CmpLT, Sp: SpWarpID, Dst: 1,
				Src: [3]Reg{2, 3, 4}, Imm: 8, Tgt: 1}
			p := &Program{Name: "k", BlockDim: 32, Funcs: []*Function{
				{Name: "main", Instrs: []Instr{in, {Op: OpExit}}},
				{Name: "f", NumArgs: 3, HasRet: true, Instrs: []Instr{{Op: OpRet, Src: [3]Reg{0, RegNone, RegNone}}}},
			}}
			text := Format(p)
			q, err := Parse(text)
			if err != nil {
				t.Fatalf("%s width %d: Parse(Format): %v\n%s", op, w, err, text)
			}
			back := q.Entry().Instrs[0]
			want := w
			if want == 1 || opTable[op].form == formSet {
				want = 0
			}
			if back.Op != op || back.Width != want {
				t.Errorf("%s width %d: reparsed as %s width %d", op, w, back.Op, back.Width)
			}
			if again := Format(q); again != text {
				t.Errorf("%s width %d: Format not stable:\n%s\n%s", op, w, text, again)
			}
		}
	}
}
