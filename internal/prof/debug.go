package prof

import (
	"fmt"

	"repro/internal/isa"
)

// SpillClass mirrors regalloc's spill storage classes so the allocator
// can record webs without an import cycle. The numeric values match
// regalloc.SpillShared/SpillLocal and must not change.
type SpillClass uint8

const (
	SpillShared SpillClass = 1
	SpillLocal  SpillClass = 2
)

func (c SpillClass) String() string {
	switch c {
	case SpillShared:
		return "shared"
	case SpillLocal:
		return "local"
	default:
		return "?"
	}
}

// SpillWeb records one spilled live web: which Chaitin round evicted it,
// which storage class and slot range its value occupies. The (class,
// slot range) pair is the stable key profile lines are resolved
// against — spill instructions carry the slot in their Imm field and it
// survives every later rewrite.
type SpillWeb struct {
	Round int        `json:"round"` // 1-based Chaitin round that spilled it
	Web   int        `json:"web"`   // web id within the allocator's numbering
	Class SpillClass `json:"class"`
	Slot  int        `json:"slot"`
	Width int        `json:"width"` // words occupied starting at Slot
}

// Name returns the stable human-readable web name, e.g. "kmain/web12.r2".
func (w SpillWeb) Name(fn string) string {
	return fmt.Sprintf("%s/web%d.r%d", fn, w.Web, w.Round)
}

// Location renders the storage range, e.g. "shared[4..5]".
func (w SpillWeb) Location() string {
	if w.Width <= 1 {
		return fmt.Sprintf("%s[%d]", w.Class, w.Slot)
	}
	return fmt.Sprintf("%s[%d..%d]", w.Class, w.Slot, w.Slot+w.Width-1)
}

// DebugInfo is the provenance map threaded from the register allocator
// through realization onto a core.Version: which budget the ladder chose
// and which webs each function spilled under it.
type DebugInfo struct {
	// RegBudget is the per-thread register budget this realization was
	// colored for (the occupancy-level decision behind every spill below).
	RegBudget int `json:"reg_budget"`
	// Funcs maps function name to the webs spilled in it, in spill order.
	Funcs map[string][]SpillWeb `json:"funcs,omitempty"`
	// Opt maps function name to {max-live before, after} for functions the
	// pressure-reducing middle end transformed under this realization's
	// budget. Spill webs recorded in Funcs for those functions refer to the
	// transformed body. Empty when the pipeline was off or never fired.
	Opt map[string][2]int `json:"opt,omitempty"`
}

// spillClassOf maps a spill opcode to the storage class it addresses.
func spillClassOf(op isa.Op) SpillClass {
	switch in := (isa.Instr{Op: op}); {
	case !in.IsSpill():
		return 0
	case op.Space() == isa.OpSpillSS.Space():
		return SpillShared
	}
	return SpillLocal
}

// ResolveSpill maps a spill instruction (by function, opcode, and slot
// immediate) back to the web whose eviction produced it. Nil-safe; the
// bool is false when the instruction is not a spill or the slot falls
// outside every recorded web (e.g. frame slots predating the allocator).
func (d *DebugInfo) ResolveSpill(fn string, op isa.Op, imm int32) (SpillWeb, bool) {
	if d == nil {
		return SpillWeb{}, false
	}
	cl := spillClassOf(op)
	if cl == 0 {
		return SpillWeb{}, false
	}
	for _, w := range d.Funcs[fn] {
		if w.Class == cl && int(imm) >= w.Slot && int(imm) < w.Slot+w.Width {
			return w, true
		}
	}
	return SpillWeb{}, false
}
