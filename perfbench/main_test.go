package main

import (
	"math"
	"testing"
)

// TestEndToEndScalesTimesByGauge: the time metrics are scaled by gaugeRef
// over the run's median gauge time; sizes and paper gaps are not.
func TestEndToEndScalesTimesByGauge(t *testing.T) {
	b := &bench{
		wl:     workloads()["scaling-cold"],
		setups: []float64{0.003, 0.002, 0.004},
		gauges: []float64{0.2 * gaugeRef, 2 * gaugeRef, 2 * gaugeRef}, // median: twice as slow
	}
	passes := []passResult{{Wall: 10, CPU: 8, AllocBytes: 5e6, Events: 800}}
	m := b.endToEnd(passes, map[string]float64{"E5": 1.41, "E8": 1.31 * 1.5})
	want := map[string]float64{
		"wall_s": 5, "cpu_s": 4, "events_per_cpu_s": 200, "setup_s": 0.0015,
		"alloc_mb": 5, "paper_gap.e5_coarsen": 0, "paper_gap.e8_busywait": 0.5,
	}
	if len(m) != len(want) {
		t.Errorf("got %d metrics, want %d: %v", len(m), len(want), m)
	}
	for name, w := range want {
		if math.Abs(m[name]-w) > 1e-9*math.Max(1, w) {
			t.Errorf("%s = %v, want %v", name, m[name], w)
		}
	}
}
