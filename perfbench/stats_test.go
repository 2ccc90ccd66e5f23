package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{50, 3}, {20, 1}, {21, 2}, {80, 4}, {100, 5}, {0.1, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{9, 0},     // not even the median has 10 above it
		{20, 50},   // 10 above the median
		{39, 50},   // p75 leaves 9
		{40, 75},   // p75 leaves 10
		{99, 75},   // p90 leaves 9
		{100, 90},  // p90 leaves 10
		{200, 95},  // p95 leaves 10
		{1000, 99}, // p99 leaves 10
		{10000, 99.9},
	} {
		got := tailPercentile(c.n, 10)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", c.n, got, c.want)
		}
		if got > 0 && beyond(c.n, got) < 10 {
			t.Errorf("n=%d: p%g leaves %d samples beyond", c.n, got, beyond(c.n, got))
		}
	}
}

func TestMinSamplesForMatchesSelection(t *testing.T) {
	for _, p := range tailLadder {
		n := minSamplesFor(p, 10)
		if tailPercentile(n, 10) < p {
			t.Errorf("at n=%d the selection is below p%g", n, p)
		}
		if n > 1 && tailPercentile(n-1, 10) >= p {
			t.Errorf("minSamplesFor(p%g) = %d is not minimal", p, n)
		}
	}
}

func TestMetricNameValidation(t *testing.T) {
	for _, s := range []string{"ckpt_p50_ms", "client.digest_ms", "9lives", "a-b.c_d"} {
		if !validName(s) {
			t.Errorf("%q rejected", s)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for _, s := range []string{"", "_x", ".x", "-x", "a b", "a/b", "ms%", string(long)} {
		if validName(s) {
			t.Errorf("%q accepted", s)
		}
	}
	for _, s := range []string{"ms", "s", "1/s", "count/ckpt", "%", "GB/s", "B/restore"} {
		if !validUnit(s) {
			t.Errorf("unit %q rejected", s)
		}
	}
	for _, s := range []string{"", "m s", "seconds_per_op_x1", "µs"} {
		if validUnit(s) {
			t.Errorf("unit %q accepted", s)
		}
	}
	if err := validateCatalog([]metricDef{{"a", "ms"}, {"a", "s"}}); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := validateCatalog(append(append([]metricDef(nil), e2eDefs...), layerDefs...)); err != nil {
		t.Error(err)
	}
}

func TestCollectDemandsExactlyTheCatalog(t *testing.T) {
	defs := []metricDef{{"a", "ms"}, {"b", "s"}}
	got, err := collect(defs, map[string]float64{"a": 1.5, "b": 2})
	if err != nil || got["a"] != (metricValue{1.5, "ms"}) || got["b"] != (metricValue{2, "s"}) {
		t.Fatalf("collect = %v, %v", got, err)
	}
	if _, err := collect([]metricDef{{"a", "ms"}, {"a", "s"}}, map[string]float64{"a": 1}); err == nil {
		t.Error("collect accepted a catalog with a repeated name")
	}
	for _, vals := range []map[string]float64{
		{"a": 1},                   // missing
		{"a": 1, "b": 2, "c": 3},   // extra
		{"a": math.NaN(), "b": 2},  // not finite
		{"a": math.Inf(1), "b": 2}, // not finite
	} {
		if _, err := collect(defs, vals); err == nil {
			t.Errorf("collect(%v) accepted", vals)
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metric lists in the code
// and in the repository's BENCHMARK.json identical.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: %d metrics in code, %d in BENCHMARK.json", kind, len(defs), len(got))
			return
		}
		for i := range defs {
			if defs[i].Name != got[i].Name || defs[i].Unit != got[i].Unit {
				t.Errorf("%s[%d]: code has %v, BENCHMARK.json has %v", kind, i, defs[i], got[i])
			}
		}
	}
	same("end_to_end", e2eDefs, b.EndToEnd)
	same("per_layer", layerDefs, b.PerLayer)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in code", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no runner", w.Name)
		}
	}
}
