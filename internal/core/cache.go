package core

import (
	"sync/atomic"

	"repro/internal/device"
	"repro/internal/isa"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/sim"
)

// realizeKey identifies one program on one platform exactly: the
// program's content hash, the device's full parameter set, the cache
// configuration (it moves the shared-spill capacity), and the
// inter-procedural allocator options. A budget pair's fill reads nothing
// else, so equal keys imply byte-identical versions at every level.
type realizeKey struct {
	prog     isa.Fingerprint
	dev      uint64
	cache    device.CacheConfig
	spaceMin bool
	moveMin  bool
	// optFP is zero when the pressure-reducing middle end is off, else the
	// pipeline's behavior fingerprint: cached artifacts built with the
	// pass on are only reused while the same pipeline would run today.
	optFP uint64
}

// realization is what a Caches owner keeps of one program on one platform:
// the ladder's budget-pair fills (proto versions, TargetWarps zero) and
// the intern table, one realized program per fingerprint. Analyses are
// not kept; they belong to the ladder that built them.
type realization struct {
	fills *memo.Cache[ladderKey, *Version]
	progs *memo.Cache[isa.Fingerprint, *isa.Program]
}

// cacheKey builds the memo key for p's realization on r's platform.
func (r *Realizer) cacheKey(p *isa.Program) realizeKey {
	key := realizeKey{
		prog:     fingerprintOf(p),
		dev:      r.Dev.Fingerprint(),
		cache:    r.Cache,
		spaceMin: r.Interproc.SpaceMin,
		moveMin:  r.Interproc.MoveMin,
	}
	if r.Opt {
		key.optFP = opt.Fingerprint
	}
	return key
}

// runKey identifies one simulated launch of a realized version exactly.
// The simulator is deterministic: its statistics are a pure function of
// the binary (covered by the version's program fingerprint, which also
// pins RegsPerThread/SharedPerBlock and therefore residency), the device,
// the cache configuration, the occupancy level, and the grid. Untraced
// launches are therefore as content-addressable as realizations.
type runKey struct {
	prog        isa.Fingerprint
	dev         uint64
	cache       device.CacheConfig
	targetWarps int
	gridWarps   int
	firstWarp   int
}

// Caches owns the memos and counters that outlive one call: the realize
// memo (each program's realization per platform), the run memo (untraced
// launches by program, device, cache config, level and grid) and the
// ladder counters. Every realizer on one owner shares its work: each
// distinct budget pair is allocated once, each distinct binary is one
// *isa.Program, and each untraced launch is simulated once. Versions,
// programs and Stats are shared between callers and must be treated as
// immutable. Everything an owner holds is released with it.
type Caches struct {
	realize                    *memo.Cache[realizeKey, *realization]
	run                        *memo.Cache[runKey, *sim.Stats]
	ladderReuse, ladderRecolor atomic.Uint64
}

// NewCaches returns an empty owner.
func NewCaches() *Caches {
	return &Caches{realize: memo.New[realizeKey, *realization](), run: memo.New[runKey, *sim.Stats]()}
}

// defaultCaches is the owner of NewRealizer's realizers and of RunAt: the
// process default that the CLIs, the experiment suite and the benchmark
// reset and read through the free functions below.
var defaultCaches = NewCaches()

// ResetRunCache drops all of the default owner's cached simulations and
// zeroes its run counters.
func ResetRunCache() { defaultCaches.run.Reset() }

// ResetRealizeCache drops all of the default owner's cached realizations
// and zeroes its realize counters.
func ResetRealizeCache() { defaultCaches.realize.Reset() }

// CacheCounters is a point-in-time snapshot of one memo cache's counters.
type CacheCounters struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// LadderCounters is a point-in-time snapshot of the occupancy-ladder
// realization counters: levels served from a shared allocation (reuse)
// and per-function colorings run against prepared analyses (recolor).
type LadderCounters struct {
	Reuse   uint64 `json:"reuse"`
	Recolor uint64 `json:"recolor"`
	// Pruned is always 0: nothing prunes. The field stays only because
	// benchmark/harness.go compiles against it (ROADMAP item 3 lists the
	// benchmark-only shims).
	Pruned uint64 `json:"-"`
}

// CacheSnapshot captures one owner's two memos and ladder counters at once.
type CacheSnapshot struct {
	Realize CacheCounters  `json:"realize"`
	Run     CacheCounters  `json:"run"`
	Ladder  LadderCounters `json:"ladder"`
}

// Snapshot reads the owner's counters atomically enough for reporting
// (each counter pair is read together; the memos are independent).
func (c *Caches) Snapshot() CacheSnapshot {
	var s CacheSnapshot
	s.Realize.Hits, s.Realize.Misses = c.realize.Stats()
	s.Run.Hits, s.Run.Misses = c.run.Stats()
	s.Ladder = LadderCounters{Reuse: c.ladderReuse.Load(), Recolor: c.ladderRecolor.Load()}
	return s
}

// SnapshotCacheCounters is the default owner's Snapshot.
func SnapshotCacheCounters() CacheSnapshot { return defaultCaches.Snapshot() }

// Delta returns the counter movement since an earlier snapshot.
func (s CacheSnapshot) Delta(earlier CacheSnapshot) CacheSnapshot {
	return CacheSnapshot{
		Realize: CacheCounters{
			Hits:   s.Realize.Hits - earlier.Realize.Hits,
			Misses: s.Realize.Misses - earlier.Realize.Misses,
		},
		Run: CacheCounters{
			Hits:   s.Run.Hits - earlier.Run.Hits,
			Misses: s.Run.Misses - earlier.Run.Misses,
		},
		Ladder: LadderCounters{
			Reuse:   s.Ladder.Reuse - earlier.Ladder.Reuse,
			Recolor: s.Ladder.Recolor - earlier.Ladder.Recolor,
		},
	}
}

// Publish copies the owner's counters into a metrics registry under the
// core.* namespace (called by exporters just before writing a snapshot).
func (c *Caches) Publish(m *obs.Registry) {
	s := c.Snapshot()
	m.Counter("core.realize_cache.hits").Store(s.Realize.Hits)
	m.Counter("core.realize_cache.misses").Store(s.Realize.Misses)
	m.Counter("core.run_cache.hits").Store(s.Run.Hits)
	m.Counter("core.run_cache.misses").Store(s.Run.Misses)
	m.Counter("core.ladder.reuse").Store(s.Ladder.Reuse)
	m.Counter("core.ladder.recolor").Store(s.Ladder.Recolor)
}

// PublishCacheMetrics is the default owner's Publish.
func PublishCacheMetrics(m *obs.Registry) { defaultCaches.Publish(m) }
