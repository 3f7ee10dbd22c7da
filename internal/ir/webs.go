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

// SplitWebs implements the paper's pruned-SSA step: the function is put
// into SSA form (pruned φ placement over the dominance frontier), the
// φ-related names are coalesced back into webs, and the resulting webs
// become the allocation variables. Independent reuses of the same virtual
// register split into separate variables, which is what gives the
// allocator freedom; φ-coalescing keeps the program executable without
// materializing φs (all operands of a φ derive from one original variable,
// so merging them is semantics-preserving).
//
// Wide variables (64/96/128-bit) are handled as atomic groups: any unit
// touched by a wide access joins its group, the group is one variable for
// its entire range, and partial writes do not kill it.
func SplitWebs(f *isa.Function) (*Vars, error) { return splitWebs(f, ssaNames) }

// Renumber is SplitWebs for input that is already web-split.
//
// Precondition: f is SplitWebs output, or such output after the
// allocator's spill-code insertion (regalloc.InsertSpills), which only adds
// fresh temporaries, each defined once. On such input every scalar
// register unit is one web and web splitting is the identity on webs, so
// Renumber skips SSA construction, takes each unit as its own web, and
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

// ssaNames is steps 2–3 of SplitWebs: it puts the scalar units into pruned
// SSA form and names each occurrence by the root of its SSA name's
// φ-coalesced class, i.e. by its web.
func ssaNames(cfg *CFG, grouped []bool) webNames {
	f := cfg.F
	n := len(grouped)
	unitLive := livenessUnits(cfg, n)
	idom := Dominators(cfg)
	df := DomFrontiers(cfg, idom)
	kids := DomChildren(cfg, idom)

	// 2. Pruned φ placement for scalar (ungrouped) units.
	phiAt := make([]map[int]bool, len(cfg.Blocks)) // block -> unit set
	for bi := range phiAt {
		phiAt[bi] = map[int]bool{}
	}
	defBlocks := make([][]int, n)
	for bi := range cfg.Blocks {
		if !cfg.Reachable(bi) {
			continue
		}
		b := &cfg.Blocks[bi]
		for i := b.Start; i < b.End; i++ {
			in := &f.Instrs[i]
			if in.HasDst() && !grouped[in.Dst] {
				defBlocks[in.Dst] = append(defBlocks[in.Dst], bi)
			}
		}
	}
	for u := 0; u < n; u++ {
		if grouped[u] || len(defBlocks[u]) == 0 {
			continue
		}
		work := append([]int(nil), defBlocks[u]...)
		onWork := map[int]bool{}
		for _, b := range work {
			onWork[b] = true
		}
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, d := range df[b] {
				if phiAt[d][u] {
					continue
				}
				if !unitLive.In[d].Has(u) {
					continue // pruned SSA: variable dead at join
				}
				phiAt[d][u] = true
				if !onWork[d] {
					onWork[d] = true
					work = append(work, d)
				}
			}
		}
	}

	// 3. Renaming. SSA names are dense ints; occurrence tables record the
	// name used at each instruction operand.
	nextName := 0
	newName := func() int { nextName++; return nextName - 1 }
	entryName := make([]int, n) // name live at function entry per unit
	stacks := make([][]int, n)
	for u := 0; u < n; u++ {
		entryName[u] = newName()
		stacks[u] = []int{entryName[u]}
	}
	defName := make([]int, len(f.Instrs))
	useName := make([][3]int, len(f.Instrs))
	for i := range defName {
		defName[i] = -1
		useName[i] = [3]int{-1, -1, -1}
	}
	// φ result names are assigned up front so that predecessors processed
	// earlier in the dominator-tree walk can union their operands into them.
	phiName := make([]map[int]int, len(cfg.Blocks)) // block -> unit -> result name
	for bi := range phiName {
		phiName[bi] = map[int]int{}
		for u := range phiAt[bi] {
			phiName[bi][u] = newName()
		}
	}
	// Union-find over names for φ-coalescing.
	nameParent := []int{}
	nfind := func(x int) int {
		for nameParent[x] != x {
			nameParent[x] = nameParent[nameParent[x]]
			x = nameParent[x]
		}
		return x
	}

	var rename func(bi int)
	rename = func(bi int) {
		b := &cfg.Blocks[bi]
		var pushed []int // units pushed in this block, for pop
		for u := range phiAt[bi] {
			stacks[u] = append(stacks[u], phiName[bi][u])
			pushed = append(pushed, u)
		}
		for i := b.Start; i < b.End; i++ {
			in := &f.Instrs[i]
			for s := 0; s < in.NumSrcs(); s++ {
				u := int(in.Src[s])
				if grouped[u] {
					continue
				}
				useName[i][s] = stacks[u][len(stacks[u])-1]
			}
			if in.HasDst() && !grouped[in.Dst] {
				u := int(in.Dst)
				nm := newName()
				defName[i] = nm
				stacks[u] = append(stacks[u], nm)
				pushed = append(pushed, u)
			}
		}
		// φ operands of successors take the names current at block end.
		for _, s := range b.Succs {
			for u := range phiAt[s] {
				cur := stacks[u][len(stacks[u])-1]
				res := phiName[s][u]
				// Coalesce result with operand.
				for len(nameParent) < nextName {
					nameParent = append(nameParent, len(nameParent))
				}
				ra, rb := nfind(res), nfind(cur)
				if ra != rb {
					nameParent[ra] = rb
				}
			}
		}
		for _, k := range kids[bi] {
			rename(k)
		}
		for j := len(pushed) - 1; j >= 0; j-- {
			u := pushed[j]
			stacks[u] = stacks[u][:len(stacks[u])-1]
		}
	}
	rename(0)
	for len(nameParent) < nextName {
		nameParent = append(nameParent, len(nameParent))
	}

	return webNames{
		n:   nextName,
		arg: func(a int) int { return nfind(entryName[a]) },
		op: func(i, s int) int {
			if s < 0 {
				return nfind(defName[i])
			}
			return nfind(useName[i][s])
		},
	}
}

// livenessUnits computes per-block liveness over raw virtual register
// units (used for pruned φ placement).
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
