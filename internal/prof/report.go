package prof

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/isa"
)

// StallSummary is the launch-wide stall breakdown in warp-cycles.
type StallSummary struct {
	Mem     uint64 `json:"mem"`
	ALU     uint64 `json:"alu"`
	Barrier uint64 `json:"barrier"`
	MSHR    uint64 `json:"mshr"`
}

// Total returns the summed stall cycles across all kinds.
func (s StallSummary) Total() uint64 { return s.Mem + s.ALU + s.Barrier + s.MSHR }

// HotSpot is one profile line: a flat PC with its issue count, stall
// attribution, and — when provenance resolves — the spill web behind it.
type HotSpot struct {
	PC      int    `json:"pc"`
	Func    string `json:"func"`
	LocalPC int    `json:"local_pc"`
	Text    string `json:"text"`

	Issues       uint64 `json:"issues"`
	StallMem     uint64 `json:"stall_mem"`
	StallALU     uint64 `json:"stall_alu"`
	StallBarrier uint64 `json:"stall_barrier"`
	StallMSHR    uint64 `json:"stall_mshr"`
	StallTotal   uint64 `json:"stall_total"`

	// Web names the spill web this instruction loads or stores
	// ("fn/webN.rR"); empty when the PC is not a resolvable spill site.
	Web    string `json:"web,omitempty"`
	WebLoc string `json:"web_loc,omitempty"`
}

// WebCost aggregates profile cost over every spill site of one web:
// "cycles attributable to spills of web W".
type WebCost struct {
	Name        string `json:"name"`
	Location    string `json:"location"`
	Issues      uint64 `json:"issues"`
	StallCycles uint64 `json:"stall_cycles"`
}

// Report is the user-facing profile for one launch, rendered by
// `orion profile` and after `orion tune -explain`'s decision log.
type Report struct {
	Kernel      string `json:"kernel"`
	Device      string `json:"device"`
	Backend     string `json:"backend"`
	TargetWarps int    `json:"target_warps"`
	GridWarps   int    `json:"grid_warps"`
	// RegBudget is the per-thread register budget the chosen occupancy
	// level was colored for (0 when no provenance was available).
	RegBudget int `json:"reg_budget,omitempty"`

	Cycles       uint64       `json:"cycles"`
	Instructions uint64       `json:"instructions"`
	Stalls       StallSummary `json:"stalls"`

	Interval uint64  `json:"interval,omitempty"`
	Tracks   []Track `json:"tracks,omitempty"`

	HotSpots []HotSpot `json:"hot_spots"`
	Webs     []WebCost `json:"webs,omitempty"`
}

// hotSpots is how many PCs a report ranks.
const hotSpots = 10

// Build ranks a profile into a report: the hotSpots PCs with the most
// attributed stall cycles (ties broken by issues, then PC, so the
// ordering is deterministic), plus per-web cost aggregation over every
// spill site provenance can resolve. dbg may be nil (hot spots still
// rank; no web columns).
func Build(p *Profile, dbg *DebugInfo) *Report {
	rep := &Report{Interval: p.Interval, Tracks: p.Tracks}
	if dbg != nil {
		rep.RegBudget = dbg.RegBudget
	}
	ix := p.Index
	webs := map[string]*WebCost{}
	var order []int
	for pc := 0; pc < ix.NumPCs(); pc++ {
		if p.Issues[pc] == 0 && p.StallTotal(pc) == 0 {
			continue
		}
		order = append(order, pc)
		in := ix.Instr(pc)
		if in.IsSpill() {
			fr, _, _ := ix.Locate(pc)
			if w, ok := dbg.ResolveSpill(fr.Name, in.Op, in.Imm); ok {
				name := w.Name(fr.Name)
				wc := webs[name]
				if wc == nil {
					wc = &WebCost{Name: name, Location: w.Location()}
					webs[name] = wc
				}
				wc.Issues += p.Issues[pc]
				wc.StallCycles += p.StallTotal(pc)
			}
		}
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if sa, sb := p.StallTotal(a), p.StallTotal(b); sa != sb {
			return sa > sb
		}
		if p.Issues[a] != p.Issues[b] {
			return p.Issues[a] > p.Issues[b]
		}
		return a < b
	})
	if len(order) > hotSpots {
		order = order[:hotSpots]
	}
	for _, pc := range order {
		fr, local, _ := ix.Locate(pc)
		in := ix.Instr(pc)
		hs := HotSpot{
			PC: pc, Func: fr.Name, LocalPC: local,
			Text:         isa.FormatInstr(ix.Prog, in),
			Issues:       p.Issues[pc],
			StallMem:     p.StallMem[pc],
			StallALU:     p.StallALU[pc],
			StallBarrier: p.StallBarrier[pc],
			StallMSHR:    p.StallMSHR[pc],
			StallTotal:   p.StallTotal(pc),
		}
		if in.IsSpill() {
			if w, ok := dbg.ResolveSpill(fr.Name, in.Op, in.Imm); ok {
				hs.Web = w.Name(fr.Name)
				hs.WebLoc = w.Location()
			}
		}
		rep.HotSpots = append(rep.HotSpots, hs)
	}
	for _, wc := range webs {
		rep.Webs = append(rep.Webs, *wc)
	}
	sort.Slice(rep.Webs, func(i, j int) bool {
		if rep.Webs[i].StallCycles != rep.Webs[j].StallCycles {
			return rep.Webs[i].StallCycles > rep.Webs[j].StallCycles
		}
		return rep.Webs[i].Name < rep.Webs[j].Name
	})
	return rep
}

// Render writes the human-readable report: hot-spot table, spill-web
// attribution, and the occupancy decision line `-explain` keys off.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "\nprofile: %d instructions in %d cycles", r.Instructions, r.Cycles)
	if r.Cycles > 0 {
		fmt.Fprintf(w, " (ipc %.2f)", float64(r.Instructions)/float64(r.Cycles))
	}
	fmt.Fprintln(w)
	if r.RegBudget > 0 {
		fmt.Fprintf(w, "occupancy decision: %d warps/SM colored at %d regs/thread\n",
			r.TargetWarps, r.RegBudget)
	}
	if len(r.HotSpots) == 0 {
		fmt.Fprintln(w, "no hot spots recorded")
		return
	}
	fmt.Fprintf(w, "hot spots (top %d by attributed stall cycles):\n", len(r.HotSpots))
	fmt.Fprintf(w, "  %-5s %-22s %10s %10s %10s %10s %10s  %s\n",
		"pc", "site", "issues", "mem", "alu", "barrier", "mshr", "instruction")
	for _, h := range r.HotSpots {
		site := fmt.Sprintf("%s+%d", h.Func, h.LocalPC)
		text := h.Text
		if h.Web != "" {
			text += "   ; spill of " + h.Web + " @ " + h.WebLoc
		}
		fmt.Fprintf(w, "  %-5d %-22s %10d %10d %10d %10d %10d  %s\n",
			h.PC, site, h.Issues, h.StallMem, h.StallALU, h.StallBarrier, h.StallMSHR, text)
	}
	if len(r.Webs) > 0 {
		fmt.Fprintln(w, "spill-web attribution:")
		for _, wc := range r.Webs {
			fmt.Fprintf(w, "  %-28s %-16s issues %-10d stall-cycles %d\n",
				wc.Name, wc.Location, wc.Issues, wc.StallCycles)
		}
	}
}
