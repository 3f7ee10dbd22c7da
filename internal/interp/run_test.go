// Run's executor test lives in an external test package: it realizes
// programs through core, which imports interp.
package interp_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fuzzcorpus"
	"repro/internal/interp"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/occupancy"
)

// runOn runs p on the differential oracle's launch (two blocks, at least
// two warps) on one executor and returns the result, each warp's
// [addr, word...] store stream and the error text.
func runOn(p *isa.Program, stepLimit int, compiled bool) (*interp.Result, [][]uint32, string) {
	grid := max(2, 2*p.BlockDim/32)
	streams := make([][]uint32, grid)
	res, err := interp.RunOn(&interp.Launch{Prog: p, GridWarps: grid}, stepLimit,
		func(warp int, addr uint32, words []uint32) {
			streams[warp] = append(append(streams[warp], addr), words...)
		}, compiled)
	return res, streams, fmt.Sprint(err)
}

// executorsAgree requires the compiled and the reference executor to give
// p identical Results (checksum, steps, stores, per-warp steps), identical
// store streams up to the end or the failure, and identical error text.
func executorsAgree(t *testing.T, name string, p *isa.Program, stepLimit int) {
	t.Helper()
	cres, cstreams, cerr := runOn(p, stepLimit, true)
	rres, rstreams, rerr := runOn(p, stepLimit, false)
	if cerr != rerr {
		t.Errorf("%s: compiled error %q, reference %q", name, cerr, rerr)
	}
	if !reflect.DeepEqual(cres, rres) {
		t.Errorf("%s: compiled result %+v, reference %+v", name, cres, rres)
	}
	if !reflect.DeepEqual(cstreams, rstreams) {
		t.Errorf("%s: store streams differ between the executors", name)
	}
}

// TestRunExecutorsAgree holds Run's compiled path to its reference path
// on every program the differential oracle meets: the suite kernels and
// their realizations at every feasible level on both devices, both
// checked-in fuzz corpora, and a runaway loop and a suite kernel cut off
// by the step limit. A lane-variant program must take the reference path.
func TestRunExecutorsAgree(t *testing.T) {
	const limit = 200_000 // the oracle's per-warp budget
	ks, err := kernels.All()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[isa.Fingerprint]bool{}
	check := func(name string, p *isa.Program) {
		if fp := p.Fingerprint(); !seen[fp] {
			seen[fp] = true
			executorsAgree(t, name, p, limit)
		}
	}
	for _, k := range ks {
		check(k.Name, k.Prog)
		for _, d := range device.Both() {
			r := core.NewRealizer(d, device.SmallCache)
			r.Verify, r.Lint = false, core.LintOff
			lad := r.NewLadder(k.Prog)
			for _, lvl := range occupancy.Levels(d, k.Prog.BlockDim) {
				if v, err := lad.Realize(lvl); err == nil {
					check(fmt.Sprintf("%s on %s at %d warps", k.Name, d.Name, lvl), v.Prog)
				}
			}
		}
	}
	realized := len(seen)
	for _, dir := range []string{
		"../isa/testdata/fuzz/FuzzDecode",
		"../core/testdata/fuzz/FuzzRealize",
	} {
		inputs, err := fuzzcorpus.Read(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range inputs {
			p, err := isa.Decode(in.Data)
			switch {
			case err != nil || isa.Validate(p) != nil:
			case p.UsesLaneID():
				runsReference(t, in.Name, p)
			default:
				check(in.Name, p)
			}
		}
	}
	t.Logf("%d suite and realized programs, %d corpus programs", realized, len(seen)-realized)

	spin := isa.MustParse(".kernel spin\n.blockdim 32\n.func main\nL0:\n  BRA L0\n")
	executorsAgree(t, "runaway", spin, 1000)
	if _, _, err := runOn(spin, 1000, true); err != "warp 0: interp: step limit exceeded" {
		t.Errorf("runaway: error %q", err)
	}
	cut := ks[0].Prog
	res, _, _ := runOn(cut, limit, false)
	executorsAgree(t, ks[0].Name+" cut short", cut, res.WarpSteps[0]/2)

	lanes := isa.MustParse(".kernel lanes\n.blockdim 32\n.func main\n  RDSP v0, LANEID\n  STG [v0], v0\n  EXIT\n")
	if res := runsReference(t, "lanes", lanes); res == nil || res.Stores != 2*interp.WarpWidth {
		t.Errorf("lane-variant program: %+v, want every lane's store", res)
	}
}

// runsReference requires Run to execute a lane-variant program exactly as
// the reference path does, and returns that result.
func runsReference(t *testing.T, name string, p *isa.Program) *interp.Result {
	t.Helper()
	grid := max(2, 2*p.BlockDim/32)
	got, err := interp.Run(&interp.Launch{Prog: p, GridWarps: grid}, 200_000, nil)
	want, _, werr := runOn(p, 200_000, false)
	if fmt.Sprint(err) != werr || !reflect.DeepEqual(got, want) {
		t.Errorf("%s: Run gave %+v, %v; the reference path %+v, %s", name, got, err, want, werr)
	}
	return got
}
