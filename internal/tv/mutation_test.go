package tv

import (
	"strings"
	"testing"

	"repro/internal/isa"
)

// The mutation harness: one seeded mutant per kind of edge the checker
// keeps, each a reordering (or edit) a broken scheduler could emit. Every
// mutant must be rejected with that edge named, and each is paired with a
// legal permutation of the same block that must be accepted — so the
// rejection comes from the reversed edge, not from the surrounding shape.
type mutCase struct {
	name      string
	pre, post *isa.Function
	want      Verdict
	reason    string // required substring of a rejection's diagnostic
}

func mutationCases() []mutCase {
	var cases []mutCase
	// pair adds a mutant of pre (rejected, naming reason) and a legal
	// permutation of the same function (accepted).
	pair := func(pre *isa.Function, mutant string, bad *isa.Function, reason, legal string, good *isa.Function) {
		cases = append(cases,
			mutCase{name: mutant, pre: pre, post: bad, want: Reject, reason: reason},
			mutCase{name: legal, pre: pre, post: good, want: Accept})
	}

	// Register dependences, one block: v1 = 5; v2 = v0 + v1; v3 = 7;
	// STG [v0] = v2; v1 = 9; v1 = 2; STG [v0+4] = v1.
	regs := fn(4,
		movi(1, 5),               // 0
		alu(isa.OpIAdd, 2, 0, 1), // 1
		movi(3, 7),               // 2
		stg(0, 2, 0),             // 3
		movi(1, 9),               // 4
		movi(1, 2),               // 5
		stg(0, 1, 4),             // 6
		ret())                    // 7
	pair(regs, "true-dependence", perm(regs, 1, 0, 2, 3, 4, 5, 6, 7), "true dependence on v1",
		"independent-def-hoisted", perm(regs, 2, 0, 1, 3, 4, 5, 6, 7))
	pair(regs, "anti-dependence", perm(regs, 0, 4, 1, 2, 3, 5, 6, 7), "anti dependence on v1",
		"redefinition-up-to-last-read", perm(regs, 0, 1, 4, 2, 3, 5, 6, 7))
	pair(regs, "output-dependence", perm(regs, 0, 1, 2, 3, 5, 4, 6, 7), "output dependence on v1",
		"redefinitions-hoisted-in-order", perm(regs, 0, 2, 1, 4, 3, 5, 6, 7))

	// Memory order: the scheduler may move pure instructions between
	// memory accesses but never one access across another.
	mem := fn(3, movi(2, 9), ldg(1, 0, 0), stg(0, 2, 0), stg(0, 1, 4), ret())
	pair(mem, "store-past-load", perm(mem, 0, 2, 1, 3, 4), "effect order",
		"pure-past-load", perm(mem, 1, 0, 2, 3, 4))

	// Barrier: STG [v0] = v1; BAR; v2 = LDG [v0]; v3 = 1; STG [v0+4] = v3.
	sync := fn(4, stg(0, 1, 0), bar(), ldg(2, 0, 0), movi(3, 1), stg(0, 3, 4), ret())
	pair(sync, "store-past-barrier", perm(sync, 1, 0, 2, 3, 4, 5), "effect order",
		"pure-past-barrier", perm(sync, 3, 0, 1, 2, 4, 5))
	pair(sync, "load-past-barrier", perm(sync, 0, 2, 1, 3, 4, 5), "effect order",
		"pure-between-barrier-and-load", perm(sync, 0, 1, 3, 2, 4, 5))

	// Call: STG [v0] = v1; v2 = f1(v1); v3 = 1; STG [v0+4] = v3.
	calls := fn(4, stg(0, 1, 0), call(2, 1, 1), movi(3, 1), stg(0, 3, 4), ret())
	pair(calls, "store-past-call", perm(calls, 1, 0, 2, 3, 4), "effect order",
		"pure-past-call", perm(calls, 2, 0, 1, 3, 4))

	// Spill slot: slot0 = v1; v1 = 0; v2 = slot0; STG [v0] = v2.
	spill := fn(3, spillSt(0, 1), movi(1, 0), spillLd(2, 0), stg(0, 2, 0), ret())
	pair(spill, "reload-before-spill", perm(spill, 2, 0, 1, 3, 4), "effect order",
		"pure-past-reload", perm(spill, 0, 2, 1, 3, 4))

	// Three blocks: v1 = 0; v2 = 4 | v1 += v0; v3 = 1; CBR v1 -> 2 | STG; RET.
	loop := fn(4,
		movi(1, 0), movi(2, 4), // block 0
		alu(isa.OpIAdd, 1, 1, 0), movi(3, 1), cbr(1, 2), // block 1
		stg(0, 3, 0), ret()) // block 2
	pair(loop, "pure-past-terminator", perm(loop, 0, 1, 2, 4, 3, 5, 6), "terminator",
		"pure-before-terminator", perm(loop, 0, 1, 3, 2, 4, 5, 6))
	pair(loop, "across-block-boundary", perm(loop, 0, 2, 1, 3, 4, 5, 6), "no counterpart",
		"within-entry-block", perm(loop, 1, 0, 2, 3, 4, 5, 6))

	// Edits that are not permutations at all, against one legal reorder of
	// the same function.
	// v1 = 5; v3 = v1; v2 = 7; STG [v0] = v3; STG [v0+4] = v2.
	base := fn(4, movi(1, 5), mov(3, 1), movi(2, 7), stg(0, 3, 0), stg(0, 2, 4), ret())
	legal := perm(base, 0, 2, 1, 3, 4, 5)
	patched := base.Clone()
	patched.Instrs[3] = stg(0, 1, 0)
	dropped := fn(4, base.Instrs[0], base.Instrs[2], base.Instrs[3], base.Instrs[4], base.Instrs[5])
	frame := legal.Clone()
	frame.NumVRegs++
	cases = append(cases,
		mutCase{name: "patched-operand", pre: base, post: patched, want: Reject, reason: "no counterpart"},
		mutCase{name: "duplicated-instruction", pre: base, post: perm(base, 0, 0, 2, 3, 4, 5), want: Reject, reason: "no counterpart"},
		mutCase{name: "dropped-copy", pre: base, post: dropped, want: Reject, reason: "instruction count"},
		mutCase{name: "changed-numvregs", pre: base, post: frame, want: Reject, reason: "NumVRegs"},
		mutCase{name: "independent-def-past-copy", pre: base, post: legal, want: Accept})

	// CallBounds must not change, and a function that carries them is only
	// accepted unchanged: the callee's frame overlays registers from the
	// bound up, which no operand field names.
	bounded := calls.Clone()
	bounded.CallBounds = []int{3}
	rebound := bounded.Clone()
	rebound.CallBounds[0] = 2
	cases = append(cases,
		mutCase{name: "changed-callbounds", pre: bounded, post: rebound, want: Reject, reason: "CallBounds changed"},
		mutCase{name: "pure-past-bounded-call", pre: bounded, post: perm(bounded, 2, 0, 1, 3, 4), want: Reject, reason: "carries CallBounds"},
		mutCase{name: "bounded-call-identity", pre: bounded, post: bounded.Clone(), want: Accept})

	// Two identical instructions in one block are matched in order, which is
	// the only assignment that could be legal (they conflict with each
	// other): swapping them is the identity, and a reorder is judged with
	// the first of post standing for the first of pre.
	twins := fn(3, movi(1, 5), stg(0, 1, 0), movi(1, 5), stg(0, 1, 0), movi(2, 1), ret())
	pair(twins, "twin-def-past-read", perm(twins, 0, 2, 1, 3, 4, 5), "anti dependence on v1",
		"twins-swapped", perm(twins, 2, 3, 0, 1, 4, 5))
	pair(twins, "twin-stores-adjacent", perm(twins, 0, 1, 3, 2, 4, 5), "true dependence on v1",
		"pure-past-twins", perm(twins, 4, 0, 1, 2, 3, 5))
	late := fn(3, movi(2, 1), movi(1, 5), movi(1, 5), stg(0, 1, 0), stg(0, 2, 4), ret())
	pair(late, "twin-replaced-by-neighbour", perm(late, 1, 0, 0, 3, 4, 5), "no counterpart",
		"twins-hoisted-together", perm(late, 1, 2, 0, 3, 4, 5))

	// Wide operands conflict on exactly the registers they share:
	// v2:v3 = v4:v5; v6 = v3 + v0; v7 = v1 + v0; STG.64 [v0] = v6:v7;
	// v7 = 0; v8 = 1.
	wide := fn(9,
		movw(2, 2, 4),            // 0
		alu(isa.OpIAdd, 6, 3, 0), // 1
		alu(isa.OpIAdd, 7, 1, 0), // 2
		stgw(2, 0, 6),            // 3
		movi(7, 0),               // 4
		movi(8, 1),               // 5
		ret())
	pair(wide, "wide-true-on-upper-half", perm(wide, 1, 0, 2, 3, 4, 5, 6), "true dependence on v3",
		"wide-disjoint-neighbour", perm(wide, 2, 0, 1, 3, 4, 5, 6))
	pair(wide, "wide-anti-on-upper-half", perm(wide, 0, 1, 2, 4, 3, 5, 6), "anti dependence on v7",
		"wide-store-next-register-free", perm(wide, 0, 1, 2, 5, 3, 4, 6))
	quad := fn(12, movw(4, 4, 8), movw(3, 1, 8), alu(isa.OpIAdd, 0, 3, 4), movi(9, 0), ret())
	pair(quad, "wide-reads-then-redefined", perm(quad, 3, 0, 1, 2, 4), "anti dependence on v9",
		"wide-writes-abut", perm(quad, 1, 0, 2, 3, 4))

	return cases
}

func TestSeededMutants(t *testing.T) {
	for _, tc := range mutationCases() {
		t.Run(tc.name, func(t *testing.T) {
			res := Validate(tc.pre, tc.post, nil)
			if res.Verdict != tc.want {
				t.Fatalf("got %v (%s), want %v", res.Verdict, res.Reason, tc.want)
			}
			if !strings.Contains(res.Reason, tc.reason) {
				t.Fatalf("diagnostic %q does not mention %q", res.Reason, tc.reason)
			}
		})
	}
}

// TestMutantsDeterministic runs every mutant twice and demands identical
// verdicts and diagnostics.
func TestMutantsDeterministic(t *testing.T) {
	for _, tc := range mutationCases() {
		if r1, r2 := Validate(tc.pre, tc.post, nil), Validate(tc.pre, tc.post, nil); r1 != r2 {
			t.Fatalf("%s: verdict flapped: %v/%q vs %v/%q", tc.name, r1.Verdict, r1.Reason, r2.Verdict, r2.Reason)
		}
	}
}
