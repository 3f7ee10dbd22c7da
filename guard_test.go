package orion_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoProcessGlobalSideTables keeps state derived from a binary on the
// binary and every cache on an owner: no non-test file under internal/ may
// declare a package-level sync.Map, a map keyed by a pointer, a memo
// cache, a sync/atomic value or a core.Caches — the shapes of the side
// tables that pinned every program ever simulated for the life of the
// process, and of the counters that every daemon shared. The process
// default owner, which the benchmark resets and reads, is the exception.
func TestNoProcessGlobalSideTables(t *testing.T) {
	allowed := map[string]bool{
		"core.defaultCaches": true,
		// Benchmark-only totals; they go with the free functions that read
		// them in ROADMAP item 10 step 2, the benchmark PR.
		"sim.totals":  true,
		"tv.counters": true,
	}

	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				what := sideTable(spec)
				for _, name := range spec.(*ast.ValueSpec).Names {
					if what != "" && !allowed[file.Name.Name+"."+name.Name] {
						t.Errorf("%s: package-level %s %s.%s: state derived from a program belongs on the program (isa.Program.Derived) or on its owner",
							fset.Position(name.Pos()), what, file.Name.Name, name.Name)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// sideTable names the forbidden shape a package-level variable
// declaration spells out anywhere in its type or initializer, or returns
// "". Function literals are skipped: their locals are not package state.
func sideTable(spec ast.Spec) (what string) {
	ast.Inspect(spec, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.MapType:
			if _, ok := e.Key.(*ast.StarExpr); ok {
				what = "pointer-keyed map"
			}
		case *ast.SelectorExpr:
			if pkg, ok := e.X.(*ast.Ident); ok {
				switch pkg.Name + "." + e.Sel.Name {
				case "sync.Map":
					what = "sync.Map"
				case "memo.Cache", "memo.New":
					what = "memo cache"
				}
				if pkg.Name == "atomic" {
					what = "sync/atomic value"
				}
			}
		case *ast.Ident:
			if e.Name == "Caches" || e.Name == "NewCaches" {
				what = "cache owner"
			}
		}
		return what == ""
	})
	return what
}

// TestNoInstrKeyedMaps keeps one answer to "which instruction is this?":
// the flat PC both executors stamp on every event (interp.Event.PC,
// numbered by isa.Program.PCBases). No non-test file under internal/ or
// cmd/ may spell a map keyed by *isa.Instr, as a package-level variable,
// a local, a field or anywhere else a type can appear.
func TestNoInstrKeyedMaps(t *testing.T) {
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(file, func(n ast.Node) bool {
				if m, ok := n.(*ast.MapType); ok && isInstrPtr(m.Key, file.Name.Name == "isa") {
					t.Errorf("%s: map keyed by *isa.Instr: locate an instruction by its flat PC (interp.Event.PC, isa.Program.PCBases)",
						fset.Position(m.Pos()))
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// isInstrPtr reports whether e spells *isa.Instr (*Instr inside package
// isa itself).
func isInstrPtr(e ast.Expr, inISA bool) bool {
	star, ok := e.(*ast.StarExpr)
	if !ok {
		return false
	}
	switch x := star.X.(type) {
	case *ast.SelectorExpr:
		pkg, ok := x.X.(*ast.Ident)
		return ok && pkg.Name == "isa" && x.Sel.Name == "Instr"
	case *ast.Ident:
		return inISA && x.Name == "Instr"
	}
	return false
}

// TestBenchmarkModuleBuilds compiles and vets benchmark/, the nested
// module that the root `go build ./... && go test ./...` never sees, so a
// change to an API it links against fails tier-1 instead of the next
// benchmark run. Offline: the module's only dependency is this repository.
func TestBenchmarkModuleBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the benchmark module")
	}
	cmd := exec.Command("go", "vet", "./...")
	cmd.Dir = "benchmark"
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOPROXY=off", "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in benchmark/: %v\n%s", err, out)
	}
}
