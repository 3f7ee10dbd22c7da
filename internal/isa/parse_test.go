package isa_test

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/kernels"
)

// oasmFiles returns every .oasm file in the repository, outside hidden
// directories.
func oasmFiles(tb testing.TB) []string {
	tb.Helper()
	var files []string
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "../.." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".oasm") {
			data, err := os.ReadFile(path)
			files = append(files, string(data))
			return err
		}
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	return files
}

func kernelSources(tb testing.TB) []string {
	tb.Helper()
	ks, err := kernels.All()
	if err != nil {
		tb.Fatal(err)
	}
	srcs := make([]string, len(ks))
	for i, k := range ks {
		srcs[i] = k.Source
	}
	return srcs
}

// FuzzParse feeds OASM text to the assembler. Parse must not panic; what
// it accepts must survive Format unchanged down to the binary; and on every
// line the table-driven instruction parser must give the Instr, or the
// error, that the per-opcode parser before it gave — except that a spill
// mnemonic now takes a width suffix (SPST.S.64) and CALL.32 is canonical
// like every other word-width opcode. The round trip also holds for a CALL
// whose sources leave a gap (CALL v1, f, _, v3): Format writes the sources
// up to the last present one, where it used to stop at the first gap.
func FuzzParse(f *testing.F) {
	for _, src := range oasmFiles(f) {
		f.Add(src)
	}
	for _, src := range kernelSources(f) {
		f.Add(src)
	}
	for op := isa.OpInvalid; op <= isa.OpExit+1; op++ {
		for _, suffix := range []string{"", ".32", ".64", ".96", ".128", ".48", ".LT", ".GE.64", ".XX"} {
			f.Add(".kernel k\n.func main\n  " + op.String() + suffix + " v1, v2, v3\n  EXIT\n")
		}
	}
	for _, line := range []string{"FROB v1, v2, v3", "BRA nowhere", "CALL v1, nope", "IADD v1, v2",
		"MOV v1, x9", "ISET v1, v2, v3", "LDG.48 v1, [v2]", "SPST.S.64 0, v4", "CALL.32 v1, f, v0",
		"CALL v1, f, _, v3"} {
		f.Add(".kernel k\n.func main\n  " + line + "\n  EXIT\n.func f args 1 ret\n  RET v0\n")
	}
	for _, src := range []string{".func main\n EXIT\n", ".kernel k\n IADD v1, v2, v3\n",
		".kernel k\n.func main\na:\n EXIT\na:\n EXIT\n", ".kernel k\n.func main\n EXIT\nend:\n"} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		for i, text := range strings.Split(src, "\n") {
			if j := strings.IndexAny(text, ";#"); j >= 0 {
				text = text[:j]
			}
			if text = strings.TrimSpace(text); text != "" {
				checkLegacyParse(t, text, i+1)
			}
		}
		p, err := isa.Parse(src)
		if err != nil {
			return
		}
		q, err := isa.Parse(isa.Format(p))
		if err != nil {
			t.Fatalf("reparsing Format: %v\n%s", err, isa.Format(p))
		}
		if !bytes.Equal(isa.Encode(q), isa.Encode(p)) {
			t.Fatalf("Format round trip changed the binary:\n%s", isa.Format(p))
		}
	})
}

// checkLegacyParse holds the instruction parser to the one before the
// opcode table on one line, allowing for the two fixes.
func checkLegacyParse(t *testing.T, text string, line int) {
	got, gotErr := isa.ParseInstr(text, line)
	mnem, rest := text, ""
	if i := strings.IndexAny(text, " \t"); i >= 0 {
		mnem, rest = text[:i], text[i:]
	}
	old, width := text, uint8(0)
	switch mnem[:min(len(mnem), 7)] {
	case "SPST.S.", "SPLD.S.", "SPST.L.", "SPLD.L.":
		width = map[string]uint8{"32": 1, "64": 2, "96": 3, "128": 4}[mnem[7:]]
	}
	if width > 0 {
		// A spill mnemonic takes a width now: the old parser answers for
		// the line without it.
		old = mnem[:6] + rest
		if pe, ok := gotErr.(*isa.ParseError); ok && strings.HasPrefix(pe.Msg, mnem+" expects ") {
			pe.Msg = mnem[:6] + pe.Msg[len(mnem):]
		}
	}
	want, _, wantErr := isa.LegacyParseInstr(old, line)
	if width > 0 {
		want.Width = width
	}
	if want.Width == 1 {
		want.Width = 0 // canonical; the old parser missed it on CALL.32
	}
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("%q: error %v, was %v", text, gotErr, wantErr)
	case gotErr != nil && gotErr.Error() != wantErr.Error():
		t.Fatalf("%q: error %q, was %q", text, gotErr, wantErr)
	case gotErr == nil && got != want:
		t.Fatalf("%q: %+v, was %+v", text, got, want)
	}
}

// BenchmarkParse assembles the benchmark kernels and the example .oasm
// files, once each per iteration.
func BenchmarkParse(b *testing.B) {
	srcs := kernelSources(b)
	paths, err := filepath.Glob("../../examples/kernels/*.oasm")
	if err != nil || len(paths) == 0 {
		b.Fatalf("example kernels: %v", err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			b.Fatal(err)
		}
		srcs = append(srcs, string(data))
	}
	b.ResetTimer()
	for range b.N {
		for _, src := range srcs {
			if _, err := isa.Parse(src); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkValidate validates the benchmark kernels once each per
// iteration, as every simulated launch does.
func BenchmarkValidate(b *testing.B) {
	ks, err := kernels.All()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for range b.N {
		for _, k := range ks {
			if err := isa.Validate(k.Prog); err != nil {
				b.Fatal(err)
			}
		}
	}
}
