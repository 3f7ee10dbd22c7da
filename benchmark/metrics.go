package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// spec is BENCHMARK.json: the contract between this program and the
// regression gate. It is read at run time from the working directory (the
// root of the checkout) for the metric bounds of `diff` and the default run
// length.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec() (*spec, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// perLayerUnits are the metrics a traced run prints, on every workload; a
// layer the workload does not exercise reads 0. The module is the prefix.
// (The six end-to-end metrics are set where they are measured, in run.go.)
var perLayerUnits = map[string]string{
	"isa.decode_us": "us", "isa.parse_us": "us", "isa.encode_us": "us", "isa.validate_us": "us",
	"sa.analyze_ms": "ms", "sa.diagnostics": "count",
	"opt.run_ms": "ms", "opt.run_tv_ms": "ms", "opt.maxlive_delta": "count",
	"tv.validate_identity_ms": "ms", "tv.checked": "count", "tv.rejected": "count", "tv.abstained": "count",
	"regalloc.prepare_ms": "ms", "regalloc.recolor_ms": "ms", "regalloc.spill_webs": "count",
	"interproc.optimize_ms": "ms", "interproc.moves": "count", "assign.maxweight_us": "us",
	"verify.check_ms": "ms", "verify.differential_ms": "ms",
	"core.ladder_realize_ms": "ms", "core.encodefat_us": "us", "core.decodefat_us": "us", "core.fat_bytes": "B",
	"core.ladder_reuse": "count", "core.ladder_recolor": "count", "core.ladder_pruned": "count",
	"core.tune_iterations": "count", "core.static_spill_instrs": "count",
	"core.select_speedup_opt_geomean": "x", "core.oracle_gap_geomean": "x",
	"memo.realize_hit_ratio": "ratio", "memo.run_hit_ratio": "ratio", "memo.do_hit_ns": "ns",
	"interp.compile_us":              "us",
	"sim.host_ns_per_instr.compiled": "ns", "sim.host_ns_per_instr.interp": "ns",
	"sim.host_ns_per_instr.bfs": "ns", "sim.host_ns_per_instr.gaussian": "ns", "sim.minstr_per_s": "Minstr/s",
	"sim.launches": "count", "sim.instructions": "count", "sim.cycles": "count", "sim.spill_instrs": "count",
	"sim.l1_hit_ratio": "ratio", "sim.l2_hit_ratio": "ratio", "sim.dram_lines": "count",
	"sim.stall_mem": "count", "sim.stall_alu": "count", "sim.stall_barrier": "count", "sim.stall_mshr": "count",
	"store.put_us": "us", "store.get_us": "us", "store.hits": "count", "store.misses": "count", "store.bytes": "B",
	"serve.http_floor_us": "us", "serve.request_key_us": "us", "serve.encode_report_us": "us",
	"serve.flight_pool_overhead_us": "us", "serve.coalesced": "count", "serve.rejected_429": "count",
	"serve.warm_p50_us": "us", "serve.cold_p50_ms": "ms", "serve.cold_p90_ms": "ms", "serve.p99_ms": "ms",
	"serve.tune_upload_p50_ms": "ms", "serve.tune_builtin_p50_ms": "ms", "serve.compile_p50_ms": "ms",
	"serve.sweep_p50_ms": "ms", "serve.scrape_p50_us": "us",
	"bench.experiment_ms.fig1": "ms", "bench.experiment_ms.fig2": "ms", "bench.experiment_ms.fig5": "ms",
	"bench.experiment_ms.fig10": "ms", "bench.experiment_ms.fig11": "ms", "bench.experiment_ms.fig12": "ms",
	"bench.experiment_ms.fig13": "ms", "bench.experiment_ms.fig14": "ms", "bench.experiment_ms.fig15": "ms",
	"bench.experiment_ms.table2": "ms", "bench.experiment_ms.table3": "ms", "bench.experiment_ms.model": "ms",
	"go.alloc_mb": "MB", "go.gc_cycles": "count",
	"trace.overhead_x": "x", "replay.compile_cover_x": "x", "host.slowdown_x": "x",
}

// issueNames maps this benchmark's (workload, metric) pairs to the names
// the issue gave the same quantities, printed beside them by the full run.
var issueNames = map[[2]string]string{
	{"compile_cold", "pass_s"}:              "compile_s",
	{"compile_opt_cold", "pass_s"}:          "compile_opt_s",
	{"tune_cold", "pass_s"}:                 "lock_s",
	{"sweep_cold", "pass_s"}:                "sweep_s",
	{"suite_cached", "pass_s"}:              "suite_s",
	{"serve_mixed", "pass_s"}:               "1000/serve_rps",
	{"serve_mixed", "op_p50_ms"}:            "serve_warm_p50",
	{"tune_cold", "speedup_geomean"}:        "select_speedup_geomean",
	{"compile_opt_cold", "speedup_geomean"}: "select_speedup_opt_geomean",
}
