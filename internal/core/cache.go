package core

import (
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

// realization is what the process keeps of one program on one platform:
// the ladder's budget-pair fills (proto versions, TargetWarps zero) and
// the intern table, one realized program per fingerprint. Analyses are
// not kept; they belong to the ladder that built them.
type realization struct {
	fills *memo.Cache[ladderKey, *Version]
	progs *memo.Cache[isa.Fingerprint, *isa.Program]
}

// realizeCache memoizes realizations process-wide: the experiment suite
// builds a fresh Realizer per kernel/device/experiment, and Compile,
// Sweep, Baseline, and the tuner all re-realize the same (program, level,
// platform) triples. Many levels round onto one budget pair, so every
// ladder on one program and platform shares one realization: each
// distinct budget pair is allocated once, and each distinct binary is one
// *isa.Program. Versions and programs are shared between callers and must
// be treated as immutable.
var realizeCache = memo.New[realizeKey, *realization]()

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

// runCache memoizes RunAt process-wide. The experiment suite re-simulates
// identical launches constantly: every tuning iteration re-runs a
// converged candidate, Fig12 and Fig13 recompute the same downward rows,
// Table 3 re-baselines the Fig11 kernels, and sweeps re-run the baseline's
// level. The returned *sim.Stats is shared and must be treated as
// immutable (all consumers only read it). Traced runs bypass the cache.
var runCache = memo.New[runKey, *sim.Stats]()

// ResetRunCache drops all cached simulations and zeroes the counters.
func ResetRunCache() { runCache.Reset() }

// SetRunCacheEnabled toggles simulation memoization.
func SetRunCacheEnabled(on bool) { runCache.SetEnabled(on) }

// ResetRealizeCache drops all cached realizations and zeroes the counters.
func ResetRealizeCache() { realizeCache.Reset() }

// SetRealizeCacheEnabled toggles realization memoization; disabling it
// restores the uncached (recompile-every-time) behaviour for comparisons.
func SetRealizeCacheEnabled(on bool) { realizeCache.SetEnabled(on) }

// RealizeCacheEnabled reports whether realization memoization is active.
func RealizeCacheEnabled() bool { return realizeCache.Enabled() }

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

// CacheSnapshot captures both process-wide memo caches and the ladder
// counters at once.
type CacheSnapshot struct {
	Realize CacheCounters  `json:"realize"`
	Run     CacheCounters  `json:"run"`
	Ladder  LadderCounters `json:"ladder"`
}

// SnapshotCacheCounters reads both caches' counters atomically enough for
// reporting (each counter pair is read together; the caches are
// independent).
func SnapshotCacheCounters() CacheSnapshot {
	var s CacheSnapshot
	s.Realize.Hits, s.Realize.Misses = realizeCache.Stats()
	s.Run.Hits, s.Run.Misses = runCache.Stats()
	s.Ladder = LadderStats()
	return s
}

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

// PublishCacheMetrics copies the current memo-cache counters into a
// metrics registry under the core.* namespace (called by exporters just
// before writing a snapshot).
func PublishCacheMetrics(m *obs.Registry) {
	s := SnapshotCacheCounters()
	m.Counter("core.realize_cache.hits").Store(s.Realize.Hits)
	m.Counter("core.realize_cache.misses").Store(s.Realize.Misses)
	m.Counter("core.run_cache.hits").Store(s.Run.Hits)
	m.Counter("core.run_cache.misses").Store(s.Run.Misses)
	m.Counter("core.ladder.reuse").Store(s.Ladder.Reuse)
	m.Counter("core.ladder.recolor").Store(s.Ladder.Recolor)
}
