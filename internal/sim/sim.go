// Package sim is the cycle-approximate GPU timing simulator that stands in
// for the paper's GTX680 and Tesla C2075 hardware. It executes the exact
// binaries the Orion compiler emits (via package interp's stepping API)
// on a multi-SM model with scoreboarded in-order warp issue, a
// greedy-then-oldest scheduler, per-SM L1 caches (with the Fermi/Kepler
// global-caching policy difference), a banked L2 (one slice per SM),
// per-SM DRAM channels with finite bandwidth (queueing), MSHR limits,
// shared-memory latency, barriers, and an energy model whose
// register-file component scales with allocated registers.
//
// The paper's occupancy phenomena are emergent here: few resident warps
// expose DRAM latency; many resident warps execute more spill code (real
// instructions inserted by the allocator), thrash the L1, and queue on
// DRAM bandwidth.
//
// SMs are mutually independent — every shared structure (L2 slice, DRAM
// channel, MSHRs, shared-memory port) is per-SM — so each SM runs on its
// own goroutine with its own clock, and the per-SM results are merged in
// SM-index order after a join (the same index-ordered fork/join merge
// package obs uses). All per-SM statistics are integers (energy is held
// as per-class event counts); the merged floating-point reductions are
// evaluated in one fixed order, so results are bit-identical run to run
// regardless of goroutine interleaving.
//
// Two execution backends drive warp-scalar kernels beneath the timing
// model: the default compiled backend (static handlers, interp.Compile)
// and the reference interpreter. Lane-variant (LANEID) kernels always run
// the reference lane-accurate executor. See Backend.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/device"
	"repro/internal/interp"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/prof"
)

// Config describes one simulated launch.
type Config struct {
	Device *device.Device
	Cache  device.CacheConfig
	// BlocksPerSM is the residency (from the occupancy calculator).
	BlocksPerSM int
	// RegsPerThread and SharedPerBlock are the resource allocation backing
	// the residency; used for energy accounting.
	RegsPerThread  int
	SharedPerBlock int
	// Backend selects the warp execution engine; the zero value is the
	// compiled backend. Both backends are bit-identical on Stats; the
	// differential oracles set BackendInterp here per call.
	Backend Backend
	// Obs, when enabled, wraps the launch in an observability span
	// carrying the run's statistics (cycles, IPC, stall breakdown, cache
	// hit rates). The zero Ctx disables it at the cost of one check.
	Obs obs.Ctx
	// Profile collects the PC profile and the counter tracks into
	// Stats.Profile and the issue trace of global warps 0..traceWarps-1
	// into Stats.Trace. Off, the hot path pays one pointer check per
	// issue.
	Profile bool
}

// Stats is the outcome of a simulated launch.
type Stats struct {
	Cycles       uint64
	Instructions uint64
	SpillInstrs  uint64
	MoveInstrs   uint64 // register-to-register moves (compressible stack traffic)

	L1Hits, L1Misses uint64
	L2Hits, L2Misses uint64
	DRAMLines        uint64
	SharedAccesses   uint64

	IssueStallCycles uint64 // SM-cycles with nothing issued

	// Stall attribution in warp-cycles: time warps spent unable to issue,
	// classified by the hazard that blocked them (a warp waiting on a
	// load's result counts toward StallMem, etc.). Sums can exceed Cycles
	// because warps stall concurrently.
	StallMem     uint64
	StallALU     uint64
	StallBarrier uint64
	StallMSHR    uint64

	Energy       float64
	EnergyStatic float64
	EnergyRF     float64

	Checksum uint64
	Warps    int

	// AvgResidentWarps is the time-averaged number of resident (launched,
	// unfinished) warps per SM — the *achieved* occupancy, which trails the
	// configured residency during tail waves.
	AvgResidentWarps float64

	// Trace and Profile are set when Config.Profile was: the issue
	// trace, and the merged PC profile with its counter tracks.
	Trace   *Trace
	Profile *prof.Profile
}

// IPC returns instructions per cycle across the device.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

const spaceLocalBit = uint64(1) << 40

// maxStepsFactor bounds the dynamic instructions per SM before a launch
// is declared a runaway kernel. A variable (not a const) so tests that
// replay adversarial fuzz corpora can lower it instead of spinning the
// full budget on both backends.
var maxStepsFactor = uint64(50_000_000)

type stallKind uint8

const (
	stallNone stallKind = iota
	stallMem
	stallALU
	stallBarrier
	stallMSHR
)

// warpCtx is one resident warp's issue state. Field order is deliberate:
// an issue attempt that fails on the scoreboard reads only the first
// cache line (hazard and memPendHigh); the scoreboard itself lives behind
// the pending slice, sized to the kernel.
type warpCtx struct {
	// hazard is the cycle at which every operand of ev is ready. ev is the
	// warp's next instruction, resolved when its predecessor committed;
	// pending only changes on the warp's own issues, so the release time
	// is fixed from then on.
	hazard      uint64
	memPendHigh uint64 // latest cycle a memory result becomes ready
	lastIssue   uint64
	atBar       bool
	done        bool
	trace       bool
	stall       stallKind // stall attribution
	gid         int32     // global warp id
	slot        int32     // index in the SM's warps array and wake set

	// ev's register operands are relative to base: a compiled warp's ev
	// is its program's shared, read-only template and base the frame
	// base; a reference warp's is buf, filled with absolute operands, and
	// base is 0. addr is ev's memory address.
	ev   *interp.Event
	base int
	addr uint32

	x  interp.StepExecutor
	cw *interp.CWarp // devirtualized fast path when x is a *interp.CWarp

	block *blockCtx

	pending []uint64      // register -> cycle its value is ready; RegHighWater entries
	buf     *interp.Event // a reference warp's Fill target
}

// warpCtxPool recycles warp contexts across blocks and across Simulate
// calls, buffers included: the tuner loop launches thousands of them.
var warpCtxPool = sync.Pool{New: func() any { return new(warpCtx) }}

// getWarpCtx returns a zeroed context whose scoreboard has nreg entries.
// A recycled context keeps its buffers, growing pending when the kernel
// is wider than the last one it served.
func getWarpCtx(nreg int) *warpCtx {
	wc := warpCtxPool.Get().(*warpCtx)
	pending, buf := wc.pending, wc.buf
	if cap(pending) < nreg {
		pending = make([]uint64, nreg)
	}
	pending = pending[:nreg]
	clear(pending) // stale stamps would fabricate hazards
	*wc = warpCtx{pending: pending, buf: buf}
	return wc
}

type blockCtx struct {
	id       int
	live     int // warps not yet exited
	barCount int
	warps    []*warpCtx
	shared   []uint32 // block-private shared memory, recycled on retire
}

var blockCtxPool = sync.Pool{New: func() any { return new(blockCtx) }}

// smStats is one SM's share of the launch statistics. Everything is an
// integer: energy is accumulated as per-class event counts and converted
// to Joules in one fixed-order float expression at merge time, so the
// parallel SM goroutines cannot perturb float summation order.
type smStats struct {
	instructions   uint64
	spillInstrs    uint64
	moveInstrs     uint64
	dramLines      uint64
	sharedAccesses uint64
	issueStall     uint64

	stallMem     uint64
	stallALU     uint64
	stallBarrier uint64
	stallMSHR    uint64

	// The scheduler's own work, exported as obs counters only: issueOne
	// calls, the ones a hazard or full MSHRs turned away, and idle
	// skip-aheads.
	issueAttempts uint64
	issueRejects  uint64
	idleSkips     uint64

	// Energy event classes. nALU counts ALU and branch issues (one
	// EnergyALU each); calls cost two; FPU issues cost 1.5. Memory lines
	// are split by where they hit (0.2/0.5/1.0 × EnergyMem); shared
	// accesses are counted in sharedAccesses.
	nALU    uint64
	nFPU    uint64
	nCall   uint64
	memL1   uint64
	memL2   uint64
	memDRAM uint64

	checksum uint64
}

// engine is the launch-wide immutable state shared (read-only) by the
// per-SM goroutines.
type engine struct {
	cfg         Config
	d           *device.Device
	lc          *interp.Launch
	layout      *interp.Layout
	comp        *interp.Compiled // nil: every warp is an interp.Warp
	wpb         int
	numBlocks   int
	sharedWords int
	dramService float64 // per-SM channel occupancy per line

	// stallHist is the shared per-warp stall-duration histogram, resolved
	// once here so the issue path never does a registry lookup;
	// Histogram.Observe is internally locked, and the bucket/count/sum
	// state is order-independent, so parallel SMs keep it deterministic.
	stallHist *obs.Histogram
}

type smCtx struct {
	eng      *engine
	id       int
	warps    []*warpCtx
	l1       *cache
	l2       *cache   // this SM's L2 slice
	mshr     []uint64 // completion cycles of outstanding misses
	lastWarp int
	// sharedFree is the cycle at which the shared-memory port next frees
	// (bandwidth queueing, like the DRAM channel).
	sharedFree float64
	// dramFree is the cycle at which this SM's DRAM channel next frees.
	dramFree float64
	// sharedPool recycles per-block shared-memory buffers: a retired
	// block's buffer is zeroed and handed to the next launched block,
	// bounding allocation churn by residency instead of grid size.
	sharedPool [][]uint32

	// nextBlock is the next grid block this SM will launch; blocks are
	// statically strided across SMs (block b runs on SM b mod SMs), which
	// keeps the assignment independent of cross-SM completion order.
	nextBlock int
	now       uint64
	lastNow   uint64
	live      int

	// residentIntegral accumulates live-warp·cycles as an integer so the
	// merged average is exact and order-independent.
	residentIntegral uint64
	st               smStats
	trace            []IssueRecord
	err              error

	// Scheduler state. recheck is last cycle's issuers in issue order;
	// they go first, in that order, when last cycle's scan was clean (it
	// reached every ready warp, and no barrier release, block retirement
	// or launch — dirty — moved stamps under it) and nobody else is
	// ready. Otherwise the ready warps are tried in rotated order from
	// lastWarp.
	recheck     []issuedRef
	recheckMask uint64 // the recheck warps' slots; current whenever clean is
	spare       []issuedRef
	clean       bool
	dirty       bool

	// prof is this SM's profiling state; nil when disabled.
	prof *smProf

	// graveyard defers returning retired warp contexts to the shared
	// pool until the next cycle boundary: the issue loop still inspects
	// a warp's done/atBar flags right after the issue that may have
	// retired it, and an immediate Put would let another goroutine's
	// Get race with those reads.
	graveyard []*warpCtx

	// wake holds every warp's wake stamp in time order, so a cycle only
	// touches warps that can issue. Last: it is 9 KiB.
	wake wakeSet
}

// issuedRef remembers a warp that issued this cycle along with its scan
// index (for scheduler-pointer updates on the fast path).
type issuedRef struct {
	wc  *warpCtx
	idx int
}

// Simulate runs the launch to completion and returns its statistics.
// When cfg.Obs is enabled, the run is wrapped in a "simulate" span whose
// attributes summarize the Stats; disabled, the instrumentation costs a
// single check.
func Simulate(cfg Config, lc *interp.Launch) (*Stats, error) {
	if !cfg.Obs.Enabled() {
		return simulateLoop(cfg, lc)
	}
	sp := cfg.Obs.Span("simulate",
		obs.String("kernel", lc.Prog.Name),
		obs.String("backend", cfg.Backend.String()),
		obs.Int("blocks_per_sm", cfg.BlocksPerSM),
		obs.Int("grid_warps", lc.GridWarps))
	st, err := simulateLoop(cfg, lc)
	if err != nil {
		sp.SetAttr(obs.String("error", err.Error()))
	} else {
		sp.SetAttr(
			obs.Uint64("cycles", st.Cycles),
			obs.Uint64("instructions", st.Instructions),
			obs.Float("ipc", st.IPC()),
			obs.Uint64("stall_mem", st.StallMem),
			obs.Uint64("stall_alu", st.StallALU),
			obs.Uint64("stall_barrier", st.StallBarrier),
			obs.Uint64("stall_mshr", st.StallMSHR),
			obs.Float("l1_hit_rate", hitRate(st.L1Hits, st.L1Misses)),
			obs.Float("l2_hit_rate", hitRate(st.L2Hits, st.L2Misses)),
			obs.Uint64("dram_lines", st.DRAMLines),
			obs.Float("avg_resident_warps", st.AvgResidentWarps),
		)
		m := cfg.Obs.Metrics()
		m.Counter("sim.launches").Add(1)
		m.Counter("sim.launches." + cfg.Backend.String()).Add(1)
		m.Counter("sim.cycles").Add(st.Cycles)
		m.Counter("sim.instructions").Add(st.Instructions)
		exportCounterTracks(cfg.Obs, st.Profile)
	}
	sp.End()
	return st, err
}

// hitRate is hits/(hits+misses), zero when there were no accesses.
func hitRate(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// simulateLoop validates the launch, runs one goroutine per SM, and
// merges the per-SM results deterministically.
func simulateLoop(cfg Config, lc *interp.Launch) (*Stats, error) {
	d := cfg.Device
	if cfg.BlocksPerSM <= 0 {
		return nil, fmt.Errorf("sim: residency is zero blocks per SM")
	}
	if err := isa.Validate(lc.Prog); err != nil {
		return nil, err
	}
	// The layout is a pure function of the program; tuning and sweeps
	// simulate the same binary many times, so it is memoized per program.
	layout, err := interp.LayoutOf(lc.Prog)
	if err != nil {
		return nil, err
	}
	// Register files and scoreboards are sized to the layout; the compiled
	// backend would run a program the reference executor rejects.
	if err := layout.CheckRegFile(); err != nil {
		return nil, err
	}
	wpb := lc.WarpsPerBlock()
	if wpb <= 0 {
		return nil, fmt.Errorf("sim: block dim %d too small", lc.Prog.BlockDim)
	}
	if cfg.BlocksPerSM*wpb > maxSlots {
		return nil, fmt.Errorf("sim: residency of %d blocks x %d warps exceeds the %d warps per SM the scheduler indexes",
			cfg.BlocksPerSM, wpb, maxSlots)
	}
	e := &engine{
		cfg:         cfg,
		d:           d,
		lc:          lc,
		layout:      layout,
		wpb:         wpb,
		numBlocks:   (lc.GridWarps + wpb - 1) / wpb,
		sharedWords: (lc.Prog.SharedBytes + 3) / 4,
		// The device-wide DRAM bandwidth is divided into one channel per
		// SM: a channel's per-line occupancy is SMs times the chip-wide
		// figure, so aggregate bandwidth is unchanged but the channels
		// (like the L2 slices) never couple SMs to each other.
		dramService: d.DRAMServiceCycles * float64(d.SMs),
	}
	if cfg.Backend == BackendCompiled && !lc.Prog.UsesLaneID() {
		// Block-compiled code is memoized per program like the layout.
		if e.comp, err = interp.CompiledOf(lc.Prog); err != nil {
			return nil, err
		}
	}
	if cfg.Obs.Enabled() {
		e.stallHist = cfg.Obs.Metrics().Histogram("sim.warp_stall_cycles")
	}

	sms := make([]*smCtx, d.SMs)
	for i := range sms {
		sms[i] = &smCtx{
			eng:       e,
			id:        i,
			l1:        newCache(d.L1Bytes(cfg.Cache), d.LineBytes, 4),
			l2:        newCache(d.L2Bytes/d.SMs, d.LineBytes, 8),
			nextBlock: i,
			prof:      newSMProf(e),
			// Pre-size the issue-scan slice for the configured residency.
			warps: make([]*warpCtx, 0, cfg.BlocksPerSM*wpb),
		}
		sms[i].wake.farMin = asleep
	}

	// Fork: SMs share nothing mutable, so each runs on its own goroutine
	// with its own clock.
	var wg sync.WaitGroup
	for _, sm := range sms {
		wg.Add(1)
		go func(sm *smCtx) {
			defer wg.Done()
			sm.run()
		}(sm)
	}
	wg.Wait()

	// All goroutines are joined: deferred warp contexts can rejoin the
	// shared pool without racing an in-flight issue loop.
	for _, sm := range sms {
		for _, w := range sm.graveyard {
			warpCtxPool.Put(w)
		}
		sm.graveyard = nil
	}

	// Join: merge in SM-index order (first error wins by index; counters
	// sum; checksums fold by XOR; clocks merge by max), mirroring the
	// index-ordered merge obs.Fork/Join uses. Every reduction below is
	// either integer arithmetic or a fixed-order float expression, so the
	// merged Stats are independent of goroutine scheduling.
	for _, sm := range sms {
		if sm.err != nil {
			return nil, sm.err
		}
	}
	st := &Stats{Warps: lc.GridWarps}
	var residentIntegral uint64
	var en smStats
	for _, sm := range sms {
		s := &sm.st
		st.Instructions += s.instructions
		st.SpillInstrs += s.spillInstrs
		st.MoveInstrs += s.moveInstrs
		st.DRAMLines += s.dramLines
		st.SharedAccesses += s.sharedAccesses
		st.IssueStallCycles += s.issueStall
		st.StallMem += s.stallMem
		st.StallALU += s.stallALU
		st.StallBarrier += s.stallBarrier
		st.StallMSHR += s.stallMSHR
		en.issueAttempts += s.issueAttempts
		en.issueRejects += s.issueRejects
		en.idleSkips += s.idleSkips
		en.nALU += s.nALU
		en.nFPU += s.nFPU
		en.nCall += s.nCall
		en.memL1 += s.memL1
		en.memL2 += s.memL2
		en.memDRAM += s.memDRAM
		en.sharedAccesses += s.sharedAccesses
		st.Checksum ^= s.checksum
		if sm.now > st.Cycles {
			st.Cycles = sm.now
		}
		residentIntegral += sm.residentIntegral
		st.L1Hits += sm.l1.hits
		st.L1Misses += sm.l1.misses
		st.L2Hits += sm.l2.hits
		st.L2Misses += sm.l2.misses
	}
	if st.Cycles > 0 {
		st.AvgResidentWarps = float64(residentIntegral) / float64(st.Cycles) / float64(d.SMs)
	}
	// Time-dependent energy: static leakage plus register-file leakage
	// proportional to the allocated fraction.
	regsPerWarp := cfg.RegsPerThread * d.WarpSize
	if g := d.RegGranularity; g > 1 {
		regsPerWarp = (regsPerWarp + g - 1) / g * g
	}
	allocRegs := float64(cfg.BlocksPerSM*wpb*regsPerWarp) / float64(d.RegsPerSM)
	if allocRegs > 1 {
		allocRegs = 1
	}
	st.EnergyStatic = d.StaticPower * float64(st.Cycles) * float64(d.SMs) / 1000
	st.EnergyRF = d.RegFilePower * allocRegs * float64(st.Cycles) * float64(d.SMs) / 1000
	st.Energy = float64(en.nALU+2*en.nCall)*d.EnergyALU +
		float64(en.nFPU)*1.5*d.EnergyALU +
		(0.2*float64(en.memL1)+0.5*float64(en.memL2)+float64(en.memDRAM))*d.EnergyMem +
		float64(en.sharedAccesses)*d.EnergyShared +
		st.EnergyStatic + st.EnergyRF

	if cfg.Obs.Enabled() {
		m := cfg.Obs.Metrics()
		m.Counter("sim.issue_attempts").Add(en.issueAttempts)
		m.Counter("sim.issue_rejects").Add(en.issueRejects)
		m.Counter("sim.idle_skips").Add(en.idleSkips)
	}
	if cfg.Profile {
		st.Trace = mergeTraces(sms)
		st.Profile = mergeProfiles(e, sms, st)
	}
	addTotals(st)
	return st, nil
}

// mergeTraces k-way merges the issue logs of the SMs that recorded any by
// (cycle, SM index): each log is already cycle-sorted because an SM's
// clock is monotone, so ties break toward the lowest SM index. Only the
// SMs hosting global warps 0..traceWarps-1 hold records.
func mergeTraces(sms []*smCtx) *Trace {
	var logs [][]IssueRecord
	total := 0
	for _, sm := range sms {
		if len(sm.trace) > 0 {
			logs = append(logs, sm.trace)
			total += len(sm.trace)
		}
	}
	tr := &Trace{Records: make([]IssueRecord, 0, total)}
	pos := make([]int, len(logs))
	for {
		best := -1
		var bestCycle uint64
		for i, log := range logs {
			if pos[i] < len(log) {
				if c := log[pos[i]].Cycle; best < 0 || c < bestCycle {
					best, bestCycle = i, c
				}
			}
		}
		if best < 0 {
			return tr
		}
		tr.Records = append(tr.Records, logs[best][pos[best]])
		pos[best]++
	}
}

// run is one SM's complete simulation: launch the initial residency,
// then alternate issue cycles with exact skip-ahead until every assigned
// block has retired.
func (sm *smCtx) run() {
	e := sm.eng
	issueWidth := e.d.IssueWidth
	ws := &sm.wake
	for b := 0; b < e.cfg.BlocksPerSM; b++ {
		sm.live += sm.launchBlock(0)
		if sm.err != nil {
			return
		}
	}
	for sm.live > 0 {
		now := sm.now
		if now > sm.lastNow {
			sm.residentIntegral += uint64(sm.live) * (now - sm.lastNow)
			sm.lastNow = now
		}
		if p := sm.prof; p != nil {
			p.sample(sm, now)
		}
		if len(sm.graveyard) > 0 {
			for _, w := range sm.graveyard {
				warpCtxPool.Put(w)
			}
			sm.graveyard = sm.graveyard[:0]
		}
		ws.advance(now)
		sm.dirty = false
		next := sm.spare[:0]
		nextMask := uint64(0)
		slots := issueWidth

		if sm.clean && ws.ready&^sm.recheckMask == 0 {
			// Only last cycle's issuers can be ready: try them in the order
			// they issued, which decides who reaches the DRAM channel, the
			// shared port and the MSHRs first. One left ready because the
			// slots ran out is among the others next cycle.
			for _, ref := range sm.recheck {
				if slots == 0 {
					break
				}
				wc := ref.wc
				if ws.ready&(1<<uint(wc.slot)) == 0 || !sm.issueOne(wc) {
					continue
				}
				if sm.err != nil {
					return
				}
				// After a retirement ref.idx is the warp's old position;
				// the next cycle's scan starts from it all the same.
				sm.lastWarp = ref.idx
				slots--
				if !wc.done && !wc.atBar {
					next = append(next, ref)
					nextMask |= 1 << uint(ref.idx)
				}
			}
			sm.clean = !sm.dirty
		} else {
			// Walk the ready warps in rotated order from lastWarp. scanned
			// counts positions passed, ready or not: a retirement restarts
			// the walk at slot 0 but not the count, so the rest of the
			// cycle sees only the n-scanned positions that are left.
			n := len(sm.warps)
			idx := sm.lastWarp
			if idx >= n {
				idx = 0
			}
			scanned := 0
			for scanned < n && slots > 0 {
				r := ws.ready
				off := bits.TrailingZeros64(r>>uint(idx) | r<<uint(n-idx))
				if off >= n-scanned {
					scanned = n
					break
				}
				scanned += off + 1
				if idx += off; idx >= n {
					idx -= n
				}
				wc := sm.warps[idx]
				if sm.issueOne(wc) {
					if sm.err != nil {
						return
					}
					sm.lastWarp = idx
					slots--
					if !wc.done && !wc.atBar {
						next = append(next, issuedRef{wc, idx})
						nextMask |= 1 << uint(idx)
					}
					// A block retirement inside issueOne compacts sm.warps
					// (a replacement of another size may launch).
					if nn := len(sm.warps); nn != n {
						n, idx = nn, 0
						sm.lastWarp = 0
						continue
					}
				}
				if idx++; idx >= n {
					idx = 0
				}
			}
			// Clean means the walk reached every ready warp — running out of
			// slots exactly on the last position counts — with no stamps
			// moved under it.
			sm.clean = scanned >= n && !sm.dirty
		}

		sm.spare = sm.recheck[:0]
		sm.recheck, sm.recheckMask = next, nextMask
		if slots < issueWidth {
			sm.now = now + 1
			continue
		}
		// Nothing issued, so every ready warp was attempted and filed with
		// its exact release time: skip ahead to the earliest one. All
		// hazards are intra-SM, so the jump cannot pass an issueable cycle.
		t := ws.next()
		if t == asleep {
			sm.err = fmt.Errorf("sim: deadlock with %d live warps", sm.live)
			return
		}
		sm.st.idleSkips++
		sm.st.issueStall += t - now
		sm.now = t
	}
}

// launchBlock launches this SM's next assigned grid block (if any) at
// cycle now and returns the number of warps it added.
func (sm *smCtx) launchBlock(now uint64) int {
	e := sm.eng
	if sm.nextBlock >= e.numBlocks {
		return 0
	}
	bid := sm.nextBlock
	sm.nextBlock += e.d.SMs
	n := e.wpb
	if rem := e.lc.GridWarps - bid*e.wpb; rem < n {
		n = rem
	}
	blk := blockCtxPool.Get().(*blockCtx)
	*blk = blockCtx{id: bid, live: n, warps: blk.warps[:0]}
	var shared []uint32
	if e.sharedWords > 0 {
		if np := len(sm.sharedPool); np > 0 {
			shared = sm.sharedPool[np-1]
			sm.sharedPool = sm.sharedPool[:np-1]
			clear(shared) // a fresh block starts with zeroed shared memory
		} else {
			shared = make([]uint32, e.sharedWords)
		}
		blk.shared = shared
	}
	for k := 0; k < n; k++ {
		gid := bid*e.wpb + k
		x, err := e.newExec(gid, shared, sm.id)
		if err != nil {
			sm.err = err
			return 0
		}
		wc := getWarpCtx(e.layout.RegHighWater)
		wc.x = x
		wc.cw, _ = x.(*interp.CWarp)
		if wc.cw == nil && wc.buf == nil {
			wc.buf = new(interp.Event)
		}
		wc.block = blk
		wc.gid = int32(gid)
		wc.slot = int32(len(sm.warps))
		wc.trace = e.cfg.Profile && gid < traceWarps
		wc.prepare()
		blk.warps = append(blk.warps, wc)
		sm.warps = append(sm.warps, wc)
		sm.wake.file(int(wc.slot), now)
	}
	return n
}

// newExec builds one warp's executor: the compiled one when the launch
// has a compiled program, else the reference interpreter.
func (e *engine) newExec(gid int, shared []uint32, smID int) (interp.StepExecutor, error) {
	if e.comp != nil {
		w := interp.NewCWarp(e.comp, e.lc, gid, shared)
		w.SMID = smID
		return w, nil
	}
	w, err := interp.NewWarp(e.lc, e.layout, gid, shared)
	if err != nil {
		return nil, err
	}
	w.SMID = smID
	return w, nil
}

// memOne charges one line-sized memory transaction and returns its
// latency.
func (sm *smCtx) memOne(ev *interp.Event, line uint64, isLoad bool) uint64 {
	d := sm.eng.d
	now := sm.now
	if ev.Space == interp.SpaceLocal {
		line |= spaceLocalBit
	}
	useL1 := ev.Space == interp.SpaceLocal || d.L1GlobalCaching
	var lat uint64
	switch {
	case useL1 && sm.l1.access(line, now):
		sm.st.memL1++
		lat = uint64(d.L1Latency)
	case sm.l2.access(line, now):
		sm.st.memL2++
		lat = uint64(d.L1Latency + d.L2Latency)
	default:
		sm.st.memDRAM++
		sm.st.dramLines++
		start := math.Max(sm.dramFree, float64(now))
		sm.dramFree = start + sm.eng.dramService
		queue := uint64(start) - now
		lat = uint64(d.L1Latency+d.L2Latency+d.DRAMLatency) + queue
	}
	if isLoad && lat > uint64(d.L1Latency) {
		sm.mshr = append(sm.mshr, now+lat)
	}
	return lat
}

// memAccess charges a memory operation: one transaction per distinct
// cache line the warp touches (a warp-scalar event has no Lane — one line
// at addr; a SIMT warp's uncoalesced access pays per line).
func (sm *smCtx) memAccess(ev *interp.Event, addr uint32, isLoad bool) (uint64, bool) {
	d := sm.eng.d
	now := sm.now
	var lines []uint64
	if ev.Lane != nil {
		lines = ev.Lane.Lines
	}
	nLines := max(len(lines), 1)
	// MSHR admission for loads that may miss.
	if isLoad {
		live := sm.mshr[:0]
		for _, c := range sm.mshr {
			if c > now {
				live = append(live, c)
			}
		}
		sm.mshr = live
		if len(sm.mshr)+nLines > d.MSHRs {
			return 0, false // structural stall
		}
	}
	if lines == nil {
		return sm.memOne(ev, uint64(addr)/uint64(d.LineBytes), isLoad), true
	}
	var lat uint64
	for _, line := range lines {
		if l := sm.memOne(ev, line, isLoad); l > lat {
			lat = l
		}
	}
	return lat, true
}

func (sm *smCtx) finishWarp(wc *warpCtx) {
	e := sm.eng
	wc.done = true
	sm.wake.stamp[wc.slot] = asleep
	_, cks, _ := wc.x.Result()
	sm.st.checksum ^= interp.MixWarpChecksum(e.lc.FirstWarp+int(wc.gid), cks)
	wc.x.Release()
	sm.live--
	blk := wc.block
	blk.live--
	if blk.live == blk.barCount && blk.barCount > 0 {
		sm.releaseBarrier(blk, sm.now, uint64(e.d.SharedLat))
		sm.dirty = true // released warps got fresh wake stamps
	}
	if blk.live == 0 {
		sm.dirty = true // compaction reindexes; a replacement block may launch
		// Retire the block's warp contexts so scan positions stay dense.
		// That renumbers the slots, so the wake set is rebuilt from the
		// survivors' stamps.
		keep := sm.warps[:0]
		var stamps [maxSlots]uint64
		for i, w := range sm.warps {
			if w.block != blk {
				w.slot = int32(len(keep))
				stamps[len(keep)] = sm.wake.stamp[i]
				keep = append(keep, w)
			} else {
				sm.graveyard = append(sm.graveyard, w)
			}
		}
		sm.warps = keep
		sm.wake.rebuild(stamps[:len(keep)])
		sm.lastWarp = 0
		if blk.shared != nil {
			sm.sharedPool = append(sm.sharedPool, blk.shared)
			blk.shared = nil
		}
		blockCtxPool.Put(blk)
		sm.live += sm.launchBlock(sm.now + 1)
	}
}

// prepare resolves the warp's next instruction into ev, base and addr, and
// its scoreboard release time into hazard: sources and destination must
// all be ready. It runs right after the previous instruction commits,
// while the warp's lines are hot, so an attempt that must fail costs two
// loads.
func (wc *warpCtx) prepare() {
	// Devirtualized fast path for the default compiled backend: the
	// template is read in place, not copied.
	if wc.cw != nil {
		wc.ev, wc.base, wc.addr = wc.cw.Peek()
	} else {
		wc.x.Fill(wc.buf)
		wc.ev, wc.base, wc.addr = wc.buf, 0, wc.buf.Addr
	}
	ev, base, pending := wc.ev, wc.base, wc.pending
	// The event caches the operand widths so they are not re-derived from
	// the instruction; width 1 is the overwhelmingly common case.
	var hazard uint64
	for i := 0; i < int(ev.NSrc); i++ {
		r := base + int(ev.AbsSrc[i])
		if p := pending[r]; p > hazard {
			hazard = p
		}
		for k := 1; k < int(ev.SrcW[i]); k++ {
			if p := pending[r+k]; p > hazard {
				hazard = p
			}
		}
	}
	if ev.AbsDst >= 0 {
		r := base + int(ev.AbsDst)
		if p := pending[r]; p > hazard {
			hazard = p
		}
		for k := 1; k < int(ev.DstW); k++ {
			if p := pending[r+k]; p > hazard {
				hazard = p
			}
		}
	}
	wc.hazard = hazard
}

// reject files a warp whose attempt failed to wake at cycle t, the exact
// release time of whatever blocked it.
func (sm *smCtx) reject(wc *warpCtx, t uint64) bool {
	sm.st.issueRejects++
	sm.wake.file(int(wc.slot), t)
	return false
}

// issueOne attempts to issue wc's next instruction at the current cycle.
// The caller found wc in the ready set; it leaves the set here and is
// filed again exactly once, with its final stamp, unless it parks at a
// barrier or exits.
func (sm *smCtx) issueOne(wc *warpCtx) bool {
	d := sm.eng.d
	now := sm.now
	sm.st.issueAttempts++
	sm.wake.ready &^= 1 << uint(wc.slot)
	// Scoreboard. The stall is attributed here, on the attempt, not when
	// the hazard was computed: a warp no free slot ever reached while it
	// waited is not charged.
	if wc.hazard > now {
		if wc.hazard <= wc.memPendHigh {
			wc.stall = stallMem
		} else {
			wc.stall = stallALU
		}
		return sm.reject(wc, wc.hazard)
	}
	ev := wc.ev
	dstW := int(ev.DstW)
	isLoad := ev.Kind == interp.KindLoad
	var lat uint64
	switch ev.Kind {
	case interp.KindALU:
		lat = uint64(d.ALULatency)
		sm.st.nALU++
	case interp.KindFPU:
		lat = uint64(d.FPULatency)
		sm.st.nFPU++
	case interp.KindBranch:
		lat = uint64(d.ALULatency)
		sm.st.nALU++
	case interp.KindCall:
		lat = uint64(2 * d.ALULatency)
		sm.st.nCall++
	case interp.KindBarrier, interp.KindExit:
		lat = 1
	case interp.KindLoad, interp.KindStore:
		if ev.Space == interp.SpaceShared {
			service := d.SharedServiceCycles
			conflicts := 0
			if ev.Lane != nil {
				conflicts = ev.Lane.BankConflicts
			}
			if conflicts > 1 {
				// Conflicting lanes serialize: the banked array replays
				// the access once per conflicting group.
				service *= float64(conflicts)
			}
			start := math.Max(sm.sharedFree, float64(now))
			sm.sharedFree = start + service
			lat = uint64(d.SharedLat) + uint64(start) - now
			if conflicts > 1 {
				lat += uint64(float64(conflicts-1) * d.SharedServiceCycles)
			}
			sm.st.sharedAccesses++
		} else {
			var ok bool
			lat, ok = sm.memAccess(ev, wc.addr, isLoad)
			if !ok {
				// MSHR full: wake when the earliest miss completes.
				earliest := uint64(math.MaxUint64)
				for _, c := range sm.mshr {
					if c < earliest {
						earliest = c
					}
				}
				if earliest == math.MaxUint64 || earliest <= now {
					earliest = now + 1
				}
				wc.stall = stallMSHR
				return sm.reject(wc, earliest)
			}
			if !isLoad {
				lat = 1 // stores retire through the write queue
			}
		}
	}

	// Successful issue: attribute the gap since the warp's last issue
	// to whatever stalled it.
	if wc.stall != stallNone && now > wc.lastIssue+1 {
		g := now - wc.lastIssue - 1
		switch wc.stall {
		case stallMem:
			sm.st.stallMem += g
		case stallALU:
			sm.st.stallALU += g
		case stallBarrier:
			sm.st.stallBarrier += g
		case stallMSHR:
			sm.st.stallMSHR += g
		}
		// The instruction issuing now is the one the warp was blocked on,
		// so the gap is its stall attribution.
		if p := sm.prof; p != nil {
			p.stalls[wc.stall][ev.PC] += g
		}
		if h := sm.eng.stallHist; h != nil {
			h.Observe(float64(g))
		}
	}
	wc.lastIssue = now
	wc.stall = stallNone
	if wc.trace {
		sm.trace = append(sm.trace, IssueRecord{
			Cycle: now, SM: int16(sm.id), Warp: wc.gid, Kind: ev.Kind,
			Mem: (ev.Kind == interp.KindLoad || ev.Kind == interp.KindStore) &&
				ev.Space != interp.SpaceShared,
		})
	}

	instr, pc := ev.Instr, ev.PC
	var err error
	if wc.cw != nil {
		err = wc.cw.Commit()
	} else {
		err = wc.x.Commit()
	}
	if err != nil {
		sm.err = err
		return true
	}
	if sm.st.instructions++; sm.st.instructions > maxStepsFactor {
		sm.err = fmt.Errorf("sim: instruction budget exceeded (runaway kernel?)")
		return true
	}
	if p := sm.prof; p != nil {
		p.issues[pc]++
	}
	if instr != nil {
		if instr.IsSpill() {
			sm.st.spillInstrs++
		}
		if instr.Op == isa.OpMov {
			sm.st.moveInstrs++
		}
	}
	ready := now + 1
	if ev.AbsDst >= 0 {
		done := now + lat
		r := wc.base + int(ev.AbsDst)
		wc.pending[r] = done
		for k := 1; k < dstW; k++ {
			wc.pending[r+k] = done
		}
		if isLoad && ev.Space != interp.SpaceShared && done > wc.memPendHigh {
			wc.memPendHigh = done
		}
	} else if lat > 1 && ev.Kind != interp.KindLoad && ev.Kind != interp.KindStore {
		ready = now + lat // control ops serialize the warp briefly
	}

	switch {
	case ev.Kind == interp.KindBarrier:
		blk := wc.block
		wc.atBar = true
		sm.wake.stamp[wc.slot] = asleep
		wc.stall = stallBarrier
		blk.barCount++
		if blk.barCount >= blk.live {
			sm.releaseBarrier(blk, now, uint64(d.SharedLat))
			sm.dirty = true // released warps got fresh wake stamps
		}
	case ev.Kind == interp.KindExit && wc.x.Done():
		sm.finishWarp(wc)
		return true
	default:
		sm.wake.file(int(wc.slot), ready)
	}
	wc.prepare()
	return true
}

func (sm *smCtx) releaseBarrier(blk *blockCtx, now, lat uint64) {
	for _, w := range blk.warps {
		if w.atBar {
			w.atBar = false
			sm.wake.file(int(w.slot), now+lat)
		}
	}
	blk.barCount = 0
}
