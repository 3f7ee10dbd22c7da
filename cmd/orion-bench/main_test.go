package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestMetricsCarryCacheCounters: -metrics writes the collector's snapshot
// with the memo-cache counters published into it just before export.
func TestMetricsCarryCacheCounters(t *testing.T) {
	out := filepath.Join(t.TempDir(), "metrics.json")
	if err := run([]string{"-exp", "fig1", "-scale", "0.05", "-metrics", out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("%s: %v", out, err)
	}
	for _, name := range []string{"core.realize_cache.hits", "core.realize_cache.misses", "core.run_cache.misses"} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("metrics snapshot lacks %s", name)
		}
	}
	if snap.Counters["core.realize_cache.hits"]+snap.Counters["core.realize_cache.misses"] == 0 {
		t.Error("fig1 made no realize-cache lookups")
	}
}
