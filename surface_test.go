package orion_test

import (
	"bytes"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestPublicSurface pins the exported API of package orion to
// testdata/public_surface.golden, one line per exported name with its
// signature. Adding, removing or re-typing a public name is a deliberate
// change: the failure prints the new surface to paste into the golden.
func TestPublicSurface(t *testing.T) {
	got := publicSurface(t)
	want, err := os.ReadFile("testdata/public_surface.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("public surface of package orion differs from testdata/public_surface.golden; new surface:\n%s", got)
	}
}

// publicSurface renders the exported declarations of the package's
// non-test files, sorted.
func publicSurface(t *testing.T) string {
	fset := token.NewFileSet()
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	pkg, err := doc.NewFromFiles(fset, files, "repro")
	if err != nil {
		t.Fatal(err)
	}

	var lines []string
	node := func(n any) string {
		var b bytes.Buffer
		if err := printer.Fprint(&b, fset, n); err != nil {
			t.Fatal(err)
		}
		return strings.Join(strings.Fields(b.String()), " ")
	}
	values := func(kw string, vals []*doc.Value) {
		for _, v := range vals {
			for _, spec := range v.Decl.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					if !name.IsExported() {
						continue
					}
					line := kw + " " + name.Name
					if vs.Type != nil {
						line += " " + node(vs.Type)
					}
					if i < len(vs.Values) {
						line += " = " + node(vs.Values[i])
					}
					lines = append(lines, line)
				}
			}
		}
	}
	funcs := func(fns []*doc.Func) {
		for _, f := range fns {
			decl := *f.Decl
			decl.Doc, decl.Body = nil, nil
			lines = append(lines, node(&decl))
		}
	}
	values("const", pkg.Consts)
	values("var", pkg.Vars)
	funcs(pkg.Funcs)
	for _, typ := range pkg.Types {
		for _, spec := range typ.Decl.Specs {
			lines = append(lines, "type "+node(spec))
		}
		values("const", typ.Consts)
		values("var", typ.Vars)
		funcs(typ.Funcs)
		funcs(typ.Methods)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// docFiles are the documents whose references TestDocReferences resolves.
var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "benchmark/README.md", "ROADMAP.md"}

var (
	testRefRE  = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*\*?`)
	makeRefRE  = regexp.MustCompile("`make ([A-Za-z0-9_.-]+)")
	lineRefRE  = regexp.MustCompile(`([A-Za-z0-9_./-]+\.go):([0-9]+)`)
	makeRuleRE = regexp.MustCompile(`(?m)^([A-Za-z0-9_.-]+):`)
)

// TestDocReferences keeps the documents from citing what is not there:
// every Test*/Benchmark*/Fuzz* name (a trailing * matches a prefix) must
// be a test function somewhere in the repository, every `make T` a
// Makefile target, and every file.go:NN a Go file (matched by path
// suffix) with at least NN lines.
func TestDocReferences(t *testing.T) {
	tests := map[string]bool{}
	goLines := map[string]int{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		goLines[filepath.ToSlash(path)] = bytes.Count(src, []byte("\n"))
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
				tests[fd.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeRuleRE.FindAllStringSubmatch(string(makefile), -1) {
		targets[m[1]] = true
	}

	testExists := func(ref string) bool {
		prefix, isPrefix := strings.CutSuffix(ref, "*")
		if !isPrefix {
			return tests[ref]
		}
		for name := range tests {
			if strings.HasPrefix(name, prefix) {
				return true
			}
		}
		return false
	}
	lineExists := func(path string, n int) bool {
		for p, lines := range goLines {
			if (p == path || strings.HasSuffix(p, "/"+path)) && lines >= n {
				return true
			}
		}
		return false
	}

	for _, name := range docFiles {
		text, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			ln := i + 1
			for _, ref := range testRefRE.FindAllString(line, -1) {
				switch strings.TrimSuffix(ref, "*") {
				case "TestXxx", "BenchmarkXxx", "FuzzXxx":
					continue
				}
				if !testExists(ref) {
					t.Errorf("%s:%d: %s names no test, benchmark or fuzz target", name, ln, ref)
				}
			}
			for _, m := range makeRefRE.FindAllStringSubmatch(line, -1) {
				if !targets[m[1]] {
					t.Errorf("%s:%d: `make %s` is not a Makefile target", name, ln, m[1])
				}
			}
			for _, m := range lineRefRE.FindAllStringSubmatch(line, -1) {
				n, _ := strconv.Atoi(m[2])
				if !lineExists(m[1], n) {
					t.Errorf("%s:%d: %s:%d: no Go file with that path and at least %d lines", name, ln, m[1], n, n)
				}
			}
		}
	}
}
