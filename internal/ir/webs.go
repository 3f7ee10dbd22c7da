package ir

import (
	"fmt"

	"repro/internal/isa"
)

// VarDef describes one allocation variable (a "web"): a set of virtual
// register units that must share storage. After SplitWebs each variable
// occupies the contiguous new virtual registers [Base, Base+Width).
type VarDef struct {
	Base  isa.Reg
	Width int
	IsArg bool // occupies a fixed ABI position (callee argument)
	// NoSpill marks spill-code temporaries: re-spilling them would add
	// spill code forever (the classic Chaitin divergence), so the
	// allocator must pick a real live range instead.
	NoSpill bool
}

// Vars is the result of web splitting: a rewritten function whose virtual
// registers are renumbered so that each variable is a contiguous range,
// plus the variable table.
type Vars struct {
	F       *isa.Function
	Defs    []VarDef
	UnitVar []int // new virtual register unit -> variable id
}

// NumVars returns the number of allocation variables.
func (v *Vars) NumVars() int { return len(v.Defs) }

// VarAt returns the variable id of the new virtual register unit u.
func (v *Vars) VarAt(u isa.Reg) int { return v.UnitVar[u] }

// SplitWebs implements the paper's pruned-SSA step: each scalar register
// unit is split into its def-use webs (the definitions that reach a common
// use, joined transitively), and the webs become the allocation variables.
// That is the partition pruned SSA yields once every φ is coalesced with
// its operands, computed here without building SSA (defUseNames).
// Independent reuses of the same virtual register split into separate
// variables, which is what gives the allocator freedom; every definition
// that reaches a use shares that use's variable, so the program stays
// executable without materializing φs.
//
// Wide variables (64/96/128-bit) are handled as atomic groups: any unit
// touched by a wide access joins its group, the group is one variable for
// its entire range, and partial writes do not kill it.
func SplitWebs(f *isa.Function) (*Vars, error) { return splitWebs(f, defUseNames) }

// Renumber is SplitWebs for input that is already web-split.
//
// Precondition: f is SplitWebs output, or such output after the
// allocator's spill-code insertion (regalloc.InsertSpills), which only adds
// fresh temporaries, each defined once. On such input every scalar
// register unit is one web and web splitting is the identity on webs, so
// Renumber skips the liveness and naming, takes each unit as its own web, and
// returns exactly what SplitWebs(f) would. On input that reuses a unit for
// independent values it still preserves semantics, but keeps those values
// in one variable where SplitWebs would split them.
func Renumber(f *isa.Function) (*Vars, error) { return splitWebs(f, unitNames) }

// webNames names the web of each scalar (ungrouped) occurrence in a
// function's reachable code. Names are dense in [0, n): arg(a) is the web
// argument a arrives in, op(i, s) the web of source s of instruction i, or
// of its destination when s < 0.
type webNames struct {
	n   int
	arg func(a int) int
	op  func(i, s int) int
}

// unitNames names every scalar occurrence by its register unit.
func unitNames(cfg *CFG, grouped []bool) webNames {
	instrs := cfg.F.Instrs
	return webNames{
		n:   len(grouped),
		arg: func(a int) int { return a },
		op: func(i, s int) int {
			if s < 0 {
				return int(instrs[i].Dst)
			}
			return int(instrs[i].Src[s])
		},
	}
}

// splitWebs groups wide accesses (step 1), names the scalar occurrences'
// webs with names(cfg, grouped) (SplitWebs's steps 2–3, or none), and turns
// the named webs and the wide groups into contiguous variables numbered by
// first occurrence (steps 4–5).
func splitWebs(f *isa.Function, names func(cfg *CFG, grouped []bool) webNames) (*Vars, error) {
	n := f.NumVRegs
	if n == 0 {
		n = 1
	}

	// 1. Wide grouping over original units (union-find).
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	grouped := make([]bool, n)
	markWide := func(base isa.Reg, w int) {
		for i := 0; i < w; i++ {
			grouped[int(base)+i] = true
			if i > 0 {
				union(int(base), int(base)+i)
			}
		}
	}
	for i := range f.Instrs {
		in := &f.Instrs[i]
		if in.HasDst() && in.W() > 1 {
			markWide(in.Dst, in.W())
		}
		for s := 0; s < in.NumSrcs(); s++ {
			if w := in.SrcWidth(s); w > 1 {
				markWide(in.Src[s], w)
			}
		}
	}
	for a := 0; a < f.NumArgs; a++ {
		if grouped[a] {
			return nil, fmt.Errorf("ir: %s: argument register v%d is part of a wide group", f.Name, a)
		}
	}

	cfg := BuildCFG(f)
	nm := names(cfg, grouped)

	// 4. Build final variables. Arguments first (fixed ABI positions).
	varOfName := make([]int, nm.n)
	for i := range varOfName {
		varOfName[i] = -1
	}
	varOfGroup := make([]int, n) // group root -> variable
	groupLo := make([]int, n)    // group root -> lowest unit
	groupHi := make([]int, n)    // group root -> highest unit
	for u := range varOfGroup {
		varOfGroup[u] = -1
		groupLo[u] = -1
	}
	var defs []VarDef
	// Argument variables: the web argument a arrives in.
	for a := 0; a < f.NumArgs; a++ {
		root := nm.arg(a)
		if varOfName[root] >= 0 {
			return nil, fmt.Errorf("ir: %s: two arguments share one web", f.Name)
		}
		varOfName[root] = len(defs)
		defs = append(defs, VarDef{Width: 1, IsArg: true})
	}
	for u := 0; u < n; u++ {
		if !grouped[u] {
			continue
		}
		r := find(u)
		if groupLo[r] < 0 {
			groupLo[r] = u
		}
		groupHi[r] = u
	}
	varFor := func(name int) int {
		if id := varOfName[name]; id >= 0 {
			return id
		}
		id := len(defs)
		varOfName[name] = id
		defs = append(defs, VarDef{Width: 1})
		return id
	}
	groupVar := func(u int) (int, int) { // returns var id, offset
		r := find(u)
		id := varOfGroup[r]
		if id < 0 {
			id = len(defs)
			varOfGroup[r] = id
			defs = append(defs, VarDef{Width: groupHi[r] - groupLo[r] + 1})
		}
		return id, u - groupLo[r]
	}

	// 5. Rewrite instructions into a cloned function. Unreachable blocks
	// were skipped by naming, so their operands have no names; leaving them
	// in place would let stale pre-renumbering registers survive into the
	// rewritten function. The code can never execute, so each unreachable
	// instruction becomes a self-branch (indices are preserved — only
	// unreachable code can target it).
	nf := f.Clone()
	for bi := range cfg.Blocks {
		if cfg.Reachable(bi) {
			continue
		}
		for i := cfg.Blocks[bi].Start; i < cfg.Blocks[bi].End; i++ {
			nf.Instrs[i] = isa.Instr{
				Op:  isa.OpBra,
				Dst: isa.RegNone,
				Src: [3]isa.Reg{isa.RegNone, isa.RegNone, isa.RegNone},
				Tgt: int32(i),
			}
		}
	}
	if nf.CallBounds != nil {
		// Keep bounds only for call sites that survived (in order).
		kept := make([]int, 0, len(nf.CallBounds))
		k := 0
		for i := range f.Instrs {
			if f.Instrs[i].Op == isa.OpCall {
				if bi := cfg.BlockOf[i]; bi >= 0 && cfg.Reachable(bi) {
					kept = append(kept, nf.CallBounds[k])
				}
				k++
			}
		}
		nf.CallBounds = kept
	}
	type patch struct {
		instr int
		srcI  int // -1 for dst
		varID int
		off   int
	}
	var patches []patch
	for bi := range cfg.Blocks {
		if !cfg.Reachable(bi) {
			continue
		}
		b := &cfg.Blocks[bi]
		for i := b.Start; i < b.End; i++ {
			in := &f.Instrs[i]
			for s := 0; s < in.NumSrcs(); s++ {
				u := int(in.Src[s])
				if grouped[u] {
					id, off := groupVar(u)
					patches = append(patches, patch{i, s, id, off})
				} else {
					patches = append(patches, patch{i, s, varFor(nm.op(i, s)), 0})
				}
			}
			if in.HasDst() {
				u := int(in.Dst)
				if grouped[u] {
					id, off := groupVar(u)
					patches = append(patches, patch{i, -1, id, off})
				} else {
					patches = append(patches, patch{i, -1, varFor(nm.op(i, -1)), 0})
				}
			}
		}
	}

	// Assign contiguous new bases: arguments at their ABI slots, then the
	// rest packed densely.
	base := f.NumArgs
	totalUnits := 0
	for vi := range defs {
		if defs[vi].IsArg {
			defs[vi].Base = isa.Reg(vi) // args are vars 0..NumArgs-1 in order
			continue
		}
		defs[vi].Base = isa.Reg(base)
		base += defs[vi].Width
	}
	totalUnits = base
	if totalUnits == 0 {
		totalUnits = 1
	}
	unitVar := make([]int, totalUnits)
	for i := range unitVar {
		unitVar[i] = -1
	}
	for vi, d := range defs {
		for k := 0; k < d.Width; k++ {
			unitVar[int(d.Base)+k] = vi
		}
	}
	for _, pt := range patches {
		in := &nf.Instrs[pt.instr]
		r := defs[pt.varID].Base + isa.Reg(pt.off)
		if pt.srcI == -1 {
			in.Dst = r
		} else {
			in.Src[pt.srcI] = r
		}
		if in.IsSpill() {
			defs[pt.varID].NoSpill = true
		}
	}
	nf.NumVRegs = totalUnits
	return &Vars{F: nf, Defs: defs, UnitVar: unitVar}, nil
}

// defUseNames is steps 2–3 of SplitWebs: it names each scalar occurrence
// by its def-use web without building SSA. Every definition starts a fresh
// name, and every reachable block a fresh name for each scalar unit live on
// its entry; the block's entry name is joined with the unit's name at the
// end of each predecessor and, in block 0, with the unit's name at function
// entry. The joined classes are the webs: the partition pruned SSA gives
// once every φ is coalesced with its operands, with no special case for an
// entry block that is also a loop header.
func defUseNames(cfg *CFG, grouped []bool) webNames {
	f := cfg.F
	n := len(grouped)
	live := livenessUnits(cfg, n)

	// Names 0..n-1 are the units' names at function entry.
	parent := make([]int, n, 2*n+len(f.Instrs))
	for i := range parent {
		parent[i] = i
	}
	newName := func() int { parent = append(parent, len(parent)); return len(parent) - 1 }
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		if ra, rb := find(a), find(b); ra != rb {
			parent[ra] = rb
		}
	}

	// entry[bi*n+u] is unit u's name on entry to block bi (live units only).
	entry := make([]int, len(cfg.Blocks)*n)
	for bi := range cfg.Blocks {
		if !cfg.Reachable(bi) {
			continue
		}
		live.In[bi].ForEach(func(u int) {
			if !grouped[u] {
				entry[bi*n+u] = newName()
			}
		})
	}
	live.In[0].ForEach(func(u int) {
		if !grouped[u] {
			union(entry[u], u)
		}
	})

	defName := make([]int, len(f.Instrs))
	useName := make([][3]int, len(f.Instrs))
	cur := make([]int, n)
	for bi := range cfg.Blocks {
		if !cfg.Reachable(bi) {
			continue
		}
		b := &cfg.Blocks[bi]
		copy(cur, entry[bi*n:(bi+1)*n])
		for i := b.Start; i < b.End; i++ {
			in := &f.Instrs[i]
			for s := 0; s < in.NumSrcs(); s++ {
				if u := in.Src[s]; !grouped[u] {
					useName[i][s] = cur[u]
				}
			}
			if in.HasDst() && !grouped[in.Dst] {
				defName[i] = newName()
				cur[in.Dst] = defName[i]
			}
		}
		for _, s := range b.Succs {
			live.In[s].ForEach(func(u int) {
				if !grouped[u] {
					union(entry[s*n+u], cur[u])
				}
			})
		}
	}

	return webNames{
		n:   len(parent),
		arg: func(a int) int { return find(a) },
		op: func(i, s int) int {
			if s < 0 {
				return find(defName[i])
			}
			return find(useName[i][s])
		},
	}
}

// livenessUnits computes per-block liveness over raw virtual register
// units (used to name the webs live across block boundaries).
func livenessUnits(cfg *CFG, n int) *Live {
	l := &Live{CFG: cfg}
	nb := len(cfg.Blocks)
	l.In = make([]BitSet, nb)
	l.Out = make([]BitSet, nb)
	gen := make([]BitSet, nb)
	kill := make([]BitSet, nb)
	for bi := 0; bi < nb; bi++ {
		l.In[bi] = NewBitSet(n)
		l.Out[bi] = NewBitSet(n)
		gen[bi] = NewBitSet(n)
		kill[bi] = NewBitSet(n)
	}
	f := cfg.F
	for bi := range cfg.Blocks {
		if !cfg.Reachable(bi) {
			continue
		}
		b := &cfg.Blocks[bi]
		for i := b.Start; i < b.End; i++ {
			in := &f.Instrs[i]
			for s := 0; s < in.NumSrcs(); s++ {
				for k := 0; k < in.SrcWidth(s); k++ {
					u := int(in.Src[s]) + k
					if !kill[bi].Has(u) {
						gen[bi].Set(u)
					}
				}
			}
			if in.HasDst() {
				for k := 0; k < in.W(); k++ {
					kill[bi].Set(int(in.Dst) + k)
				}
			}
		}
	}
	solveLiveness(cfg, l, gen, kill)
	return l
}

func solveLiveness(cfg *CFG, l *Live, gen, kill []BitSet) {
	for changed := true; changed; {
		changed = false
		for i := len(cfg.RPO) - 1; i >= 0; i-- {
			bi := cfg.RPO[i]
			b := &cfg.Blocks[bi]
			for _, s := range b.Succs {
				if l.Out[bi].OrWith(l.In[s]) {
					changed = true
				}
			}
			newIn := l.Out[bi].Clone()
			newIn.AndNotWith(kill[bi])
			newIn.OrWith(gen[bi])
			if l.In[bi].OrWith(newIn) {
				changed = true
			}
		}
	}
}
