// Package ir provides the Orion compiler's middle-end analyses: control
// flow graphs, post-dominators, live-range (web) splitting — the paper's
// "pruned SSA" step, whose webs are the φ-coalesced classes of pruned SSA,
// computed here by joining live-in names across CFG edges without building
// SSA (TestSplitWebsMatchesDefUseChains) — dataflow liveness, interference
// information, and the max-live metric that drives compile-time occupancy
// tuning.
package ir

import "repro/internal/isa"

// Block is a basic block: instructions [Start, End) of the function.
type Block struct {
	ID    int
	Start int
	End   int
	Succs []int
	Preds []int
}

// CFG is the control flow graph of one function.
type CFG struct {
	F      *isa.Function
	Blocks []Block
	// BlockOf maps an instruction index to its block ID, or -1 if the
	// instruction is unreachable.
	BlockOf []int
	// RPO is a reverse postorder over reachable blocks.
	RPO []int
}

// BuildCFG partitions the function into basic blocks and links edges.
// Blocks unreachable from the entry keep their slot in Blocks but have no
// edges, are excluded from RPO, and their instructions map to -1 in
// BlockOf.
func BuildCFG(f *isa.Function) *CFG {
	n := len(f.Instrs)
	leader := make([]bool, n+1)
	leader[0] = true
	for i := range f.Instrs {
		in := &f.Instrs[i]
		if in.IsBranch() {
			leader[in.Tgt] = true
			if i+1 < n {
				leader[i+1] = true
			}
		}
		if in.Terminates() && i+1 < n {
			leader[i+1] = true
		}
	}

	cfg := &CFG{F: f, BlockOf: make([]int, n)}
	for i := range cfg.BlockOf {
		cfg.BlockOf[i] = -1
	}
	start := 0
	for i := 1; i <= n; i++ {
		if i == n || leader[i] {
			b := Block{ID: len(cfg.Blocks), Start: start, End: i}
			cfg.Blocks = append(cfg.Blocks, b)
			start = i
		}
	}
	for bi := range cfg.Blocks {
		b := &cfg.Blocks[bi]
		for i := b.Start; i < b.End; i++ {
			cfg.BlockOf[i] = bi
		}
	}
	blockAt := func(instr int) int { return cfg.BlockOf[instr] }
	for bi := range cfg.Blocks {
		b := &cfg.Blocks[bi]
		last := &f.Instrs[b.End-1]
		switch {
		case last.Op == isa.OpBra:
			b.Succs = append(b.Succs, blockAt(int(last.Tgt)))
		case last.Op == isa.OpCbr:
			t := blockAt(int(last.Tgt))
			b.Succs = append(b.Succs, t)
			if b.End < n {
				ft := blockAt(b.End)
				if ft != t {
					b.Succs = append(b.Succs, ft)
				}
			}
		case last.Terminates():
			// no successors
		default:
			if b.End < n {
				b.Succs = append(b.Succs, blockAt(b.End))
			}
		}
	}
	// Reachability from entry.
	reach := make([]bool, len(cfg.Blocks))
	stack := []int{0}
	reach[0] = true
	for len(stack) > 0 {
		bi := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range cfg.Blocks[bi].Succs {
			if !reach[s] {
				reach[s] = true
				stack = append(stack, s)
			}
		}
	}
	// Preds over reachable blocks only.
	for bi := range cfg.Blocks {
		if !reach[bi] {
			cfg.Blocks[bi].Succs = nil
			for i := cfg.Blocks[bi].Start; i < cfg.Blocks[bi].End; i++ {
				cfg.BlockOf[i] = -1
			}
			continue
		}
		for _, s := range cfg.Blocks[bi].Succs {
			cfg.Blocks[s].Preds = append(cfg.Blocks[s].Preds, bi)
		}
	}
	// Reverse postorder.
	visited := make([]bool, len(cfg.Blocks))
	var post []int
	var dfs func(bi int)
	dfs = func(bi int) {
		visited[bi] = true
		for _, s := range cfg.Blocks[bi].Succs {
			if !visited[s] {
				dfs(s)
			}
		}
		post = append(post, bi)
	}
	dfs(0)
	cfg.RPO = make([]int, len(post))
	for i, b := range post {
		cfg.RPO[len(post)-1-i] = b
	}
	return cfg
}

// Reachable reports whether block bi is reachable from the entry.
func (c *CFG) Reachable(bi int) bool {
	return bi == 0 || len(c.Blocks[bi].Preds) > 0
}
