package core

import (
	"bufio"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/occupancy"
	"repro/internal/par"
)

// diffLadder realizes p at every occupancy level twice — once through one
// shared ladder (the incremental path) and once through a fresh ladder per
// level (no cross-level reuse) — and requires identical outcomes: the same
// feasibility verdict per level and, for feasible levels, byte-identical
// Versions (program fingerprint and every realized resource). The caller
// gives inc a fresh owner and the scratch side takes a fresh one per
// level, so both paths actually compile.
func diffLadder(t *testing.T, inc, scratch *Realizer, p *isa.Program) {
	t.Helper()
	lad := inc.NewLadder(p)
	for _, lvl := range occupancy.Levels(inc.Dev, p.BlockDim) {
		vi, errI := lad.Realize(lvl)
		cold := *scratch
		cold.caches = NewCaches()
		vs, errS := cold.Realize(p, lvl)
		if (errI == nil) != (errS == nil) {
			t.Fatalf("level %d: incremental err=%v, scratch err=%v", lvl, errI, errS)
		}
		if errI != nil {
			var infI, infS *ErrInfeasible
			if errors.As(errI, &infI) != errors.As(errS, &infS) {
				t.Fatalf("level %d: error class differs: incremental %v, scratch %v", lvl, errI, errS)
			}
			continue
		}
		if got, want := fingerprintOf(vi.Prog), fingerprintOf(vs.Prog); got != want {
			t.Fatalf("level %d: fingerprint differs: incremental %x, scratch %x", lvl, got, want)
		}
		if vi.TargetWarps != vs.TargetWarps ||
			vi.RegsPerThread != vs.RegsPerThread ||
			vi.SharedPerBlock != vs.SharedPerBlock ||
			vi.LocalSlots != vs.LocalSlots ||
			vi.Moves != vs.Moves ||
			vi.Natural != vs.Natural {
			t.Fatalf("level %d: realized resources differ:\n incremental %+v\n scratch     %+v", lvl, vi, vs)
		}
	}
}

// TestLadderDifferentialKernels proves the incremental ladder produces
// exactly the from-scratch realization for every benchmark kernel at every
// feasible occupancy level, on both paper devices. The incremental path
// runs with the allocation verifier and differential execution oracle on
// (GTX680), so reused allocations are also semantically checked.
func TestLadderDifferentialKernels(t *testing.T) {
	ks, err := kernels.All()
	if err != nil {
		t.Fatalf("kernels: %v", err)
	}
	for _, dev := range []*device.Device{device.GTX680(), device.TeslaC2075()} {
		for _, k := range ks {
			t.Run(dev.Name+"/"+k.Name, func(t *testing.T) {
				inc := NewCaches().NewRealizer(dev, device.SmallCache)
				inc.Verify = dev.Name == device.GTX680().Name
				scratch := NewRealizer(dev, device.SmallCache)
				scratch.Verify = false
				diffLadder(t, inc, scratch, k.Prog)
			})
		}
	}
}

// corpusPrograms decodes every checked-in fuzz corpus entry (both the
// realize corpus and the decoder corpus) that is a valid, realizable
// program.
func corpusPrograms(t *testing.T) []*isa.Program {
	t.Helper()
	var out []*isa.Program
	seen := map[isa.Fingerprint]bool{}
	for _, dir := range []string{
		filepath.Join("testdata", "fuzz", "FuzzRealize"),
		filepath.Join("..", "isa", "testdata", "fuzz", "FuzzDecode"),
	} {
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("corpus %s: %v", dir, err)
		}
		for _, fe := range files {
			if fe.IsDir() {
				continue
			}
			data := corpusBytes(t, filepath.Join(dir, fe.Name()))
			if data == nil {
				continue
			}
			p, err := isa.Decode(data)
			if err != nil || isa.Validate(p) != nil || !fuzzRealizable(p) {
				continue
			}
			if fp := p.Fingerprint(); !seen[fp] {
				seen[fp] = true
				out = append(out, p)
			}
		}
	}
	return out
}

// corpusBytes parses one Go fuzz corpus file ("go test fuzz v1" followed
// by one quoted []byte literal per fuzz argument) and returns the first
// byte argument, or nil if the file is not in that shape.
func corpusBytes(t *testing.T, path string) []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() || !strings.HasPrefix(sc.Text(), "go test fuzz") {
		return nil
	}
	if !sc.Scan() {
		return nil
	}
	line := sc.Text()
	open := strings.Index(line, "(")
	close := strings.LastIndex(line, ")")
	if !strings.HasPrefix(line, "[]byte(") || open < 0 || close <= open {
		return nil
	}
	s, err := strconv.Unquote(line[open+1 : close])
	if err != nil {
		return nil
	}
	return []byte(s)
}

// TestLadderDifferentialCorpus replays the checked-in fuzz corpora through
// the differential harness: every structurally valid corpus program must
// realize identically with and without cross-level sharing.
func TestLadderDifferentialCorpus(t *testing.T) {
	progs := corpusPrograms(t)
	if len(progs) == 0 {
		t.Fatal("no realizable corpus programs found")
	}
	d := device.GTX680()
	for _, p := range progs {
		inc := NewCaches().NewRealizer(d, device.SmallCache)
		inc.Verify = false
		scratch := NewRealizer(d, device.SmallCache)
		scratch.Verify = false
		diffLadder(t, inc, scratch, p)
	}
}

// TestLadderCountersMove checks that a sweep through one shared ladder
// actually exercises the reuse machinery (the counters the CLIs report).
func TestLadderCountersMove(t *testing.T) {
	ks, err := kernels.All()
	if err != nil {
		t.Fatalf("kernels: %v", err)
	}
	d := device.GTX680()
	c := NewCaches()
	r := c.NewRealizer(d, device.SmallCache)
	r.Verify = false
	lad := r.NewLadder(ks[0].Prog)
	for _, lvl := range occupancy.Levels(d, ks[0].Prog.BlockDim) {
		if _, err := lad.Realize(lvl); err != nil {
			var inf *ErrInfeasible
			if !errors.As(err, &inf) {
				t.Fatalf("level %d: %v", lvl, err)
			}
		}
	}
	work := c.Snapshot().Ladder
	if work.Recolor == 0 {
		t.Error("no re-colorings recorded across a full sweep")
	}
	if work.Reuse == 0 {
		t.Error("no reuse recorded across a full sweep")
	}
}

// TestLadderOrderIndependent pins what lets Sweep, Compile and the daemon
// fan levels out with no level realized first: the ladder is a memo on the
// budget pair (and the pair its level started from), so each level's
// verdict and binary, and the ladder's total work (one miss per distinct
// pair, a hit for every other request), are the same whichever level asks
// first. Every kernel on both devices is
// realized in occupancy.Levels order, in reverse, in a seeded shuffle and
// fanned out over par.ForEach, each through a fresh ladder.
func TestLadderOrderIndependent(t *testing.T) {
	ks, err := kernels.All()
	if err != nil {
		t.Fatalf("kernels: %v", err)
	}
	type outcome struct {
		fp  isa.Fingerprint
		err string
	}
	rng := rand.New(rand.NewSource(21))
	for _, d := range device.Both() {
		for _, k := range ks {
			levels := occupancy.Levels(d, k.Prog.BlockDim)
			sweep := func(visit func(realize func(i int))) ([]outcome, LadderCounters) {
				c := NewCaches() // every ladder realizes for itself
				r := c.NewRealizer(d, device.SmallCache)
				r.Verify = false
				lad := r.NewLadder(k.Prog)
				out := make([]outcome, len(levels))
				visit(func(i int) {
					if v, err := lad.Realize(levels[i]); err != nil {
						out[i].err = err.Error()
					} else {
						out[i].fp = fingerprintOf(v.Prog)
					}
				})
				return out, c.Snapshot().Ladder
			}
			inOrder := func(order []int) func(func(int)) {
				return func(realize func(int)) {
					for _, i := range order {
						realize(i)
					}
				}
			}
			asc := make([]int, len(levels))
			desc := make([]int, len(levels))
			for i := range asc {
				asc[i], desc[i] = i, len(levels)-1-i
			}
			want, wantWork := sweep(inOrder(asc))
			if wantWork.Pruned != 0 {
				t.Errorf("%s on %s: Pruned = %d, want 0", k.Name, d.Name, wantWork.Pruned)
			}
			for name, visit := range map[string]func(func(int)){
				"reverse":  inOrder(desc),
				"shuffled": inOrder(rng.Perm(len(levels))),
				"parallel": func(realize func(int)) { par.ForEach(0, len(levels), realize) },
			} {
				got, work := sweep(visit)
				for i, lvl := range levels {
					if got[i] != want[i] {
						t.Errorf("%s on %s lvl=%d %s: %+v, in level order %+v", k.Name, d.Name, lvl, name, got[i], want[i])
					}
				}
				if work != wantWork {
					t.Errorf("%s on %s %s: ladder work %+v, in level order %+v", k.Name, d.Name, name, work, wantWork)
				}
			}
		}
	}
}

// TestAllocatorWorkDeterminism pins the allocator's two work counters
// (regalloc.simplify_scans: variables examined while picking pushes;
// regalloc.select_visits: colorings attempted): they count what the
// coloring did, so a compile must report the same pair on every run, and
// with its candidate levels realized on one goroutine or on several.
func TestAllocatorWorkDeterminism(t *testing.T) {
	work := func(p *isa.Program, d *device.Device) [2]uint64 {
		r := NewCaches().NewRealizer(d, device.SmallCache) // every compile colors for itself
		r.Verify = false
		r.Obs = obs.New()
		if _, err := r.Compile(p, true); err != nil {
			t.Fatalf("%s on %s: %v", p.Name, d.Name, err)
		}
		m := r.Obs.Metrics()
		return [2]uint64{m.Counter("regalloc.simplify_scans").Value(), m.Counter("regalloc.select_visits").Value()}
	}
	for _, name := range []string{"cfd", "hotspot", "srad"} {
		k, err := kernels.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range device.Both() {
			first := work(k.Prog, d)
			if first[0] == 0 || first[1] == 0 {
				t.Fatalf("%s on %s: counters did not move: %v", name, d.Name, first)
			}
			for run := 1; run < 3; run++ {
				if got := work(k.Prog, d); got != first {
					t.Fatalf("%s on %s run %d: allocator work %v, want %v", name, d.Name, run, got, first)
				}
			}
			var serial [2]uint64
			withProcs(1, func() { serial = work(k.Prog, d) })
			if serial != first {
				t.Fatalf("%s on %s: allocator work %v with the ladder serial, %v parallel", name, d.Name, serial, first)
			}
		}
	}
}

// retryMeetsLevel loads a generated kernel whose level-40 realization on
// the C2075 with the large cache overflows its call chains twice, and
// whose second retry is exactly level 48's starting budget pair.
func retryMeetsLevel(t *testing.T) *isa.Program {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", "retry_meets_level.oasm"))
	if err != nil {
		t.Fatal(err)
	}
	return isa.MustParse(string(src))
}

// TestLadderRetryMeetsLevel pins why the ladder keys its memo by a level's
// starting pair as well as the pair realized: a retry can meet another
// level's starting pair (retry_meets_level.oasm), and Compile realizes the
// two levels in different groups, side by side. Each must fill that pair
// for itself, so the ladder does the same work, recorded in the same
// level's trace slot, in either order.
func TestLadderRetryMeetsLevel(t *testing.T) {
	p := retryMeetsLevel(t)
	r := NewRealizer(device.TeslaC2075(), device.LargeCache)
	r.Verify = false
	var fills [2]int
	for i, order := range [][]int{{40, 48}, {48, 40}} {
		ResetRealizeCache() // each order fills a realization of its own
		lad := r.NewLadder(p)
		for _, lvl := range order {
			if _, err := lad.realizeLevel(lvl, obs.Ctx{}); err != nil {
				t.Fatalf("level %d: %v", lvl, err)
			}
		}
		fills[i] = lad.re.fills.Len()
		start40, _ := lad.budgets(40)
		start48, _ := lad.budgets(48)
		// A probe that runs found no entry for its key.
		for _, k := range []ladderKey{{start40, start40}, {start40, start48}, {start48, start48}} {
			probed := false
			lad.re.fills.Do(k, func() (*Version, error) { probed = true; return nil, nil })
			if start40 == start48 || probed {
				t.Fatalf("order %v: no entry %v (level 40 starts at %v, level 48 at %v)", order, k, start40, start48)
			}
		}
	}
	if fills[0] != fills[1] {
		t.Errorf("entries depend on the order: %d vs %d", fills[0], fills[1])
	}
}
