package tv

import (
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/verify"
)

// FuzzPerm decodes an arbitrary binary, applies a few seeded swaps of
// adjacent instructions inside the blocks of one function, and holds the
// checker to two things: its verdict equals conflicts, the all-pairs
// definition below that shares nothing with the checker's one-pass tables,
// and a permutation it accepts leaves the program's store stream unchanged
// wherever the interpreter can run it.
func FuzzPerm(f *testing.F) {
	for _, src := range []string{
		`
.kernel straight
.blockdim 32
.func main
  RDSP v0, WARPID
  MOVI v1, 3
  IADD v2, v0, v1
  STG [v2], v1
  EXIT
`,
		`
.kernel loop
.blockdim 32
.func main
  RDSP v0, WARPID
  MOVI v1, 0
  MOVI v2, 0
loop:
  IADD v3, v0, v2
  LDG v4, [v3]
  MOVI v5, 1
  IADD v2, v2, v5
  MOVI v6, 4
  ISET.LT v7, v2, v6
  IADD v1, v1, v4
  CBR v7, loop
  STG [v0], v1
  EXIT
`,
		`
.kernel reuse
.blockdim 32
.func main
  RDSP v0, WARPID
  MOVI v1, 4
  IADD v2, v0, v1
  MOVI v1, 9
  MOVI v1, 7
  STG [v2], v1
  MOVI v2, 0
  STG [v0], v2
  MOVI v3, 1
  EXIT
`,
		`
.kernel mixed
.shared 256
.blockdim 32
.func main
  RDSP v0, WARPID
  MOVI v1, 4
  SHL v2, v0, v1
  LDG.64 v4, [v2]
  MOVI v3, 8
  STS [v3], v4
  BAR
  LDS v6, [v3]
  CALL v7, twice, v6
  MOV.64 v8, v4
  IADD v10, v7, v9
  STG.64 [v2+8], v8
  STG [v2], v10
  EXIT
.func twice args 1 ret
  IADD v1, v0, v0
  RET v1
`,
	} {
		// 32 swap seeds per program: enough that these inputs alone, run by
		// plain `go test`, fail when any one kind of edge is taken out of the
		// checker.
		for seed := uint64(0); seed < 32; seed++ {
			f.Add(isa.Encode(isa.MustParse(src)), seed)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		p, err := isa.Decode(data)
		if err != nil || isa.Validate(p) != nil || len(p.Funcs) > 8 {
			return
		}
		rng := seed
		next := func(n int) int { // splitmix64, reduced to [0, n)
			rng += 0x9e3779b97f4a7c15
			x := rng
			x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
			x = (x ^ x>>27) * 0x94d049bb133111eb
			return int((x ^ x>>31) % uint64(n))
		}
		fi := next(len(p.Funcs))
		pre := p.Funcs[fi]
		if len(pre.Instrs) > 256 {
			return
		}
		blocks := ir.BuildCFG(pre).Blocks
		post := pre.Clone()
		for s := 1 + next(4); s > 0; s-- {
			if b := blocks[next(len(blocks))]; b.End-b.Start >= 2 {
				i := b.Start + next(b.End-b.Start-1)
				post.Instrs[i], post.Instrs[i+1] = post.Instrs[i+1], post.Instrs[i]
			}
		}

		res := Validate(pre, post, nil)
		if why := conflicts(pre, post, blocks); (why == "") != (res.Verdict == Accept) {
			t.Fatalf("checker says %v (%s), all-pairs definition says %q", res.Verdict, res.Reason, why)
		}
		if res.Verdict != Accept {
			return
		}
		np := p.Clone()
		np.Funcs[fi] = post
		if err := isa.Validate(np); err != nil {
			t.Fatalf("accepted permutation of a valid program is invalid: %v", err)
		}
		if layout, err := interp.NewLayout(np); err != nil || layout.RegHighWater > interp.RegFileSize {
			return
		}
		if vs := verify.Differential(p, np, 0, 0); vs != nil {
			t.Fatalf("accepted permutation changes behaviour: %s: %s", vs[0].Invariant, vs[0].Detail)
		}
	})
}

// conflicts is the legality definition, written the slow way: post must
// hold, block by block, the instructions of pre, the n-th copy of an
// instruction standing for the n-th, and every pair of one block that
// conflicts must appear in pre's order. It returns the first violation or
// "".
func conflicts(pre, post *isa.Function, blocks []ir.Block) string {
	if pre.CallBounds != nil {
		// A call overwrites registers from its bound up: nothing may move.
		for i := range pre.Instrs {
			if pre.Instrs[i] != post.Instrs[i] {
				return "instruction moved in a function with call bounds"
			}
		}
		return ""
	}
	regs := func(first isa.Reg, width int) map[isa.Reg]bool {
		set := map[isa.Reg]bool{}
		for w := 0; w < width; w++ {
			set[first+isa.Reg(w)] = true
		}
		return set
	}
	reads := func(in *isa.Instr) map[isa.Reg]bool {
		set := map[isa.Reg]bool{}
		for s := 0; s < in.NumSrcs(); s++ {
			for r := range regs(in.Src[s], in.SrcWidth(s)) {
				set[r] = true
			}
		}
		return set
	}
	writes := func(in *isa.Instr) map[isa.Reg]bool {
		if !in.HasDst() {
			return nil
		}
		return regs(in.Dst, in.W())
	}
	meet := func(a, b map[isa.Reg]bool) bool {
		for r := range a {
			if b[r] {
				return true
			}
		}
		return false
	}
	ordered := func(in *isa.Instr) bool {
		return in.IsMem() || in.IsSpill() || in.IsBranch() || in.Terminates() || in.Op == isa.OpBar || in.Op == isa.OpCall
	}
	for _, b := range blocks {
		// at[k]: where post has pre instruction k.
		at := map[int]int{}
		for k := b.Start; k < b.End; k++ {
			nth := 0
			for i := b.Start; i < k; i++ {
				if pre.Instrs[i] == pre.Instrs[k] {
					nth++
				}
			}
			found := false
			for j := b.Start; j < b.End && !found; j++ {
				if post.Instrs[j] == pre.Instrs[k] {
					if nth == 0 {
						at[k], found = j, true
					}
					nth--
				}
			}
			if !found {
				return "block is not a permutation"
			}
		}
		for i := b.Start; i < b.End; i++ {
			for j := i + 1; j < b.End; j++ {
				a, c := &pre.Instrs[i], &pre.Instrs[j]
				clash := meet(writes(a), reads(c)) || meet(reads(a), writes(c)) || meet(writes(a), writes(c)) ||
					ordered(a) && ordered(c) ||
					j == b.End-1 && (c.IsBranch() || c.Terminates())
				if clash && at[i] > at[j] {
					return "conflicting pair reversed"
				}
			}
		}
	}
	return ""
}
