package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// The quartiles must match Python's statistics.quantiles(vs, n=4), by which
// run-to-run spread is judged; the expected values were computed with it.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		vs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25}, // Python extrapolates for tiny samples
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{10.2, 9.1, 11.0, 9.8, 10.0, 10.4, 9.9, 10.1, 12.5, 9.0}, 9.625, 10.55},
	}
	for _, c := range cases {
		q1, q3, err := quartiles(c.vs)
		if err != nil || !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v", c.vs, q1, q3, err, c.q1, c.q3)
		}
	}
	if _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value: want an error")
	}
}

func TestMedianAndSpread(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("empty median = %v", m)
	}
	vs := []float64{10.2, 9.1, 11.0, 9.8, 10.0, 10.4, 9.9, 10.1, 12.5, 9.0}
	s, err := spread(vs)
	if want := (10.55 - 9.625) / 10.05; err != nil || !near(s, want) {
		t.Errorf("spread = %v, %v; want %v", s, err, want)
	}
	if vs[0] != 10.2 {
		t.Error("median/quartiles must not reorder their input")
	}
	if _, err := spread([]float64{0, 0, 0}); err == nil {
		t.Error("spread of a zero median: want an error")
	}
	if m := mean([]float64{1, 2, 6}); m != 3 {
		t.Errorf("mean = %v", m)
	}
}

func TestMetricNamePattern(t *testing.T) {
	for _, ok := range []string{"wall_s", "paper_gap.e5_coarsen", "htm.aborts.lock-busy", "sched.handoff_ns.n128", "9lives"} {
		if !validName(ok) {
			t.Errorf("%q should be valid", ok)
		}
	}
	long := "a"
	for len(long) < 65 {
		long += "a"
	}
	for _, bad := range []string{"", "_x", ".x", "-x", "a b", "a/b", "section_s.ablation: HT", "a,b", long} {
		if validName(bad) {
			t.Errorf("%q should be invalid", bad)
		}
	}
}

// TestDeclaredMetrics checks BENCHMARK.json against the names the
// benchmark can emit: valid, unique, and one cpu_share per fold layer.
func TestDeclaredMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var doc struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, m := range append(doc.EndToEnd, doc.PerLayer...) {
		if !validName(m.Name) || seen[m.Name] {
			t.Errorf("metric %q is invalid or repeated", m.Name)
		}
		seen[m.Name] = true
	}
	for _, l := range layers {
		if !seen[l+".cpu_share"] {
			t.Errorf("fold layer %q has no declared %s.cpu_share", l, l)
		}
	}
	for _, s := range catalog {
		if !seen["section_s."+s.alias] {
			t.Errorf("section %s has no declared span", s.alias)
		}
	}
}
