// Package sa is the static SIMT analyzer: a dataflow pass suite over
// validated isa.Programs that proves thread-level properties for all
// executions, complementing the dynamic oracle in internal/verify which
// only checks the path the interpreter happens to execute. Orion rewrites
// machine code it did not generate — it decodes binaries, re-allocates
// registers, and injects shared-memory spill traffic — so both the
// untrusted decoded input and every realized version are gated here.
//
// Four analyses run per function:
//
//   - thread-variance dataflow (variance.go): a forward lattice analysis
//     classifying every register as a constant range, block-uniform, an
//     affine function of the thread index (stride·tid + range), or
//     arbitrarily thread-variant; every branch condition becomes uniform
//     or divergent.
//   - barrier divergence (barrier.go): an OpBar — or a call that can
//     execute one — control-dependent on a divergent branch is a
//     potential deadlock (SA-BAR-DIV).
//   - shared-memory races (race.go): functions partition into barrier
//     intervals; two user shared-memory accesses that can fall in the
//     same interval race when their derived address ranges may overlap
//     across threads (SA-RACE), with an explicit abstention diagnostic
//     (SA-ADDR-UNKNOWN) when an address is not statically analyzable.
//   - definite use (defuse.go): may-uninitialized register and spill-slot
//     reads (SA-UNINIT), dead stores (SA-DEAD-STORE), and unreachable
//     blocks (SA-UNREACHABLE).
//
// Analyze expects a program that already passed isa.Validate; on such
// programs it never panics and always terminates (every lattice has
// finite height and every fixpoint is monotone).
package sa

import (
	"fmt"
	"sort"

	"repro/internal/ir"
	"repro/internal/isa"
)

// Severity ranks a diagnostic. Error-severity findings are defects that
// make execution unsound (deadlock, data race); warnings are abstentions
// or likely bugs; info findings are code-quality observations.
type Severity uint8

// Severity levels, ordered.
const (
	SevInfo Severity = iota
	SevWarning
	SevError
)

// String names the severity level.
func (s Severity) String() string {
	switch s {
	case SevError:
		return "error"
	case SevWarning:
		return "warning"
	default:
		return "info"
	}
}

// Diagnostic codes. Each analysis owns one or two codes; tests and the
// lint CLI match on them.
const (
	CodeBarDiv      = "SA-BAR-DIV"      // barrier control-dependent on a divergent branch
	CodeRace        = "SA-RACE"         // same-interval shared accesses may overlap across threads
	CodeAddrUnknown = "SA-ADDR-UNKNOWN" // shared address unanalyzable; race check abstains
	CodeUninit      = "SA-UNINIT"       // read of a may-uninitialized register or spill slot
	CodeDeadStore   = "SA-DEAD-STORE"   // register definition never used
	CodeUnreachable = "SA-UNREACHABLE"  // block unreachable from function entry
)

// severityOf maps each diagnostic code to its fixed severity.
func severityOf(code string) Severity {
	switch code {
	case CodeBarDiv, CodeRace:
		return SevError
	case CodeAddrUnknown, CodeUninit:
		return SevWarning
	default:
		return SevInfo
	}
}

// Diagnostic is one analyzer finding, anchored to a (function, block,
// instruction) coordinate so output order is deterministic.
type Diagnostic struct {
	Code    string
	Sev     Severity
	Func    string
	FuncIdx int
	Block   int
	PC      int // instruction index within the function
	Detail  string
}

// String renders the diagnostic on one line.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s %s %s[%d] block %d: %s",
		d.Code, d.Sev, d.Func, d.PC, d.Block, d.Detail)
}

// CountErrors returns the number of error-severity diagnostics.
func CountErrors(diags []Diagnostic) int {
	n := 0
	for _, d := range diags {
		if d.Sev == SevError {
			n++
		}
	}
	return n
}

// Analyze runs the full pass suite over every function of a validated
// program and returns all findings in deterministic
// (function, block, pc, code) order. It must not be handed a program
// that fails isa.Validate.
func Analyze(p *isa.Program) []Diagnostic {
	hasBar := barrierFuncs(p)
	var diags []Diagnostic
	for fi := range p.Funcs {
		fa := newFuncAnalysis(p, fi, hasBar)
		diags = append(diags, fa.run()...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.FuncIdx != b.FuncIdx {
			return a.FuncIdx < b.FuncIdx
		}
		if a.Block != b.Block {
			return a.Block < b.Block
		}
		if a.PC != b.PC {
			return a.PC < b.PC
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.Detail < b.Detail
	})
	return diags
}

// barrierFuncs reports, per function index, whether calling it can
// execute a BAR, directly or through callees: one callees-first pass, so
// order is p.CallOrder() walked backwards (the program is validated, so it
// has one).
func barrierFuncs(p *isa.Program) []bool {
	has := make([]bool, len(p.Funcs))
	order, _ := p.CallOrder()
	for k := len(order) - 1; k >= 0; k-- {
		f := p.Funcs[order[k]]
		for i := range f.Instrs {
			if in := &f.Instrs[i]; in.Op == isa.OpBar || in.Op == isa.OpCall && has[in.Tgt] {
				has[order[k]] = true
				break
			}
		}
	}
	return has
}

// funcAnalysis carries one function's per-pass state.
type funcAnalysis struct {
	p      *isa.Program
	fi     int
	f      *isa.Function
	cfg    *ir.CFG
	nreg   int    // register frame bound (FrameSlots if allocated, else NumVRegs)
	hasBar []bool // per program function: can execute BAR
	// callIdx maps an instruction index to its static call number within
	// the function (CallBounds order), or -1 for non-calls.
	callIdx []int
	wpb     int64 // warps per block
	in      []*absState
	diags   []Diagnostic
}

func newFuncAnalysis(p *isa.Program, fi int, hasBar []bool) *funcAnalysis {
	f := p.Funcs[fi]
	nreg := f.NumVRegs
	if f.Allocated {
		nreg = f.FrameSlots
	}
	if f.NumArgs > nreg {
		nreg = f.NumArgs
	}
	fa := &funcAnalysis{
		p:       p,
		fi:      fi,
		f:       f,
		cfg:     ir.BuildCFG(f),
		nreg:    nreg,
		hasBar:  hasBar,
		callIdx: make([]int, len(f.Instrs)),
		wpb:     int64(p.BlockDim / 32),
	}
	if fa.wpb < 1 {
		fa.wpb = 1
	}
	ci := 0
	for i := range f.Instrs {
		fa.callIdx[i] = -1
		if f.Instrs[i].Op == isa.OpCall {
			fa.callIdx[i] = ci
			ci++
		}
	}
	return fa
}

// threads returns the number of distinct values the symbolic thread
// index can take within one block.
func (fa *funcAnalysis) threads(s symID) int64 {
	switch s {
	case symWarp:
		return fa.wpb
	case symLane:
		return 32
	default:
		return 1
	}
}

// blockThreads is the number of concurrently synchronizing execution
// contexts in one block: warps, times lanes when the program is
// lane-aware.
func (fa *funcAnalysis) blockThreads() int64 {
	t := fa.wpb
	if fa.p.UsesLaneID() {
		t *= 32
	}
	return t
}

func (fa *funcAnalysis) addDiag(code string, block, pc int, detail string) {
	fa.diags = append(fa.diags, Diagnostic{
		Code:    code,
		Sev:     severityOf(code),
		Func:    fa.f.Name,
		FuncIdx: fa.fi,
		Block:   block,
		PC:      pc,
		Detail:  detail,
	})
}

// run executes every per-function pass and returns the findings.
func (fa *funcAnalysis) run() []Diagnostic {
	fa.checkUnreachable()
	fa.fixpoint()

	// One reporting walk collects everything the variance-dependent
	// checks need: divergent branch blocks, barrier points (BARs and
	// calls that can execute one), and shared accesses with their
	// abstract addresses.
	nb := len(fa.cfg.Blocks)
	divergent := make([]bool, nb)
	var barrierPCs []int
	var accesses []sharedAccess
	fa.walk(func(bi, pc int, in *isa.Instr, st *absState) {
		switch in.Op {
		case isa.OpCbr:
			if isDivergent(st.read(in.Src[0])) {
				divergent[bi] = true
			}
		case isa.OpBar:
			barrierPCs = append(barrierPCs, pc)
		case isa.OpCall:
			if t := int(in.Tgt); t >= 0 && t < len(fa.hasBar) && fa.hasBar[t] {
				barrierPCs = append(barrierPCs, pc)
			}
		case isa.OpLdS, isa.OpStS:
			// For both loads and stores the address register is Src[0].
			addr := addV(st.read(in.Src[0]), constV(int64(in.Imm), int64(in.Imm)))
			accesses = append(accesses, sharedAccess{
				pc:    pc,
				block: bi,
				write: in.Op == isa.OpStS,
				addr:  addr,
				bytes: int64(4 * in.W()),
			})
		}
	})

	fa.checkBarriers(divergent, barrierPCs)
	fa.checkRaces(accesses, barrierPCs)
	fa.checkUninit()
	fa.checkDeadStores()
	return fa.diags
}
