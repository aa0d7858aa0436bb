package sim

import (
	"testing"

	"tsxhpc/internal/probe"
)

// TestProbeDisabledPathZeroAlloc asserts the acceptance bound for disarmed
// probes: every probe entry point a hot path touches (phase switch, cycle
// query, reclassify, span emit, and charge itself via Compute) allocates
// nothing when the machine carries no probe state.
func TestProbeDisabledPathZeroAlloc(t *testing.T) {
	m := New(benchConfig(1, 1))
	if m.ProbeSet() != nil || m.TraceRing() != nil {
		t.Fatal("probes unexpectedly armed on a default benchConfig machine")
	}
	m.Run(1, func(c *Context) {
		allocs := testing.AllocsPerRun(1000, func() {
			prev := c.SetPhase(PhaseTxn)
			c.Compute(1)
			_ = c.PhaseCycles(PhaseTxn)
			c.ReclassifyCycles(PhaseTxn, PhaseWasted, 0)
			c.EmitSpan(0, 1, "txn", "x")
			c.SetPhase(prev)
		})
		if allocs != 0 {
			t.Errorf("disabled probe path allocates %.1f per op, want 0", allocs)
		}
	})
}

// TestPhaseAttribution drives the virtual-time profiler directly: cycles
// charged inside a phase land on that phase, reclassification moves them,
// and the snapshot reports both the per-thread and the per-engine totals
// under the engine name installed by SetProbeEngine.
func TestPhaseAttribution(t *testing.T) {
	probe.ResetGlobal()
	defer probe.ResetGlobal()
	cfg := benchConfig(1, 1)
	cfg.Metrics = true
	cfg.Label = "probe-test"
	m := New(cfg)
	m.SetProbeEngine("eng")
	addr := m.Mem.AllocLine(8)
	m.Run(1, func(c *Context) {
		c.Load(addr)  // memory traffic so the L1 plane is nonzero
		c.Compute(10) // PhaseOther
		prev := c.SetPhase(PhaseTxn)
		c.Compute(100)
		c.ReclassifyCycles(PhaseTxn, PhaseWasted, 40)
		c.SetPhase(prev)
		c.Compute(5) // PhaseOther again
	})
	snap := m.ProbeSnapshot()
	if got := snap.Counter("vt/eng/txn"); got != 60 {
		t.Errorf("vt/eng/txn = %d, want 60", got)
	}
	if got := snap.Counter("vt/eng/wasted"); got != 40 {
		t.Errorf("vt/eng/wasted = %d, want 40", got)
	}
	if got := snap.Counter("vt/eng/t0/txn"); got != 60 {
		t.Errorf("vt/eng/t0/txn = %d, want 60", got)
	}
	// PhaseOther additionally absorbs thread start/finish costs, so bound it
	// from below rather than pinning it.
	if got := snap.Counter("vt/eng/other"); got < 15 {
		t.Errorf("vt/eng/other = %d, want >= 15", got)
	}
	// The L1 plane rides in the same snapshot.
	if got := snap.Counter("l1/hits") + snap.Counter("l1/misses"); got == 0 {
		t.Error("snapshot carries no L1 events")
	}
}

// TestResetProbesExcludesSetupNoise mirrors how stamp uses ResetProbes: work
// charged before the reset (workload setup) must not appear in the snapshot,
// work after it must.
func TestResetProbesExcludesSetupNoise(t *testing.T) {
	probe.ResetGlobal()
	defer probe.ResetGlobal()
	cfg := benchConfig(1, 1)
	cfg.Metrics = true
	m := New(cfg)
	var marks uint64
	m.ProbeSet().Bind("test/marks", &marks)
	m.Run(1, func(c *Context) {
		prev := c.SetPhase(PhaseTxn)
		c.Compute(1000) // "setup": discarded below
		c.SetPhase(prev)
		marks++
	})
	m.ResetProbes()
	m.Run(1, func(c *Context) {
		prev := c.SetPhase(PhaseTxn)
		c.Compute(7)
		c.SetPhase(prev)
		marks++
	})
	snap := m.ProbeSnapshot()
	if got := snap.Counter("vt/sim/txn"); got != 7 {
		t.Errorf("vt/sim/txn after reset = %d, want 7 (setup cycles must be excluded)", got)
	}
	if got := snap.Counter("test/marks"); got != 1 {
		t.Errorf("test/marks after reset = %d, want 1", got)
	}
}

// TestTraceRingSpans exercises the -trace plumbing at the machine level:
// spans emitted from simulated threads land on the ring with the emitting
// thread's id, and the ring's keep-first bound counts overflow instead of
// growing.
func TestTraceRingSpans(t *testing.T) {
	probe.ResetGlobal()
	defer probe.ResetGlobal()
	cfg := benchConfig(1, 2)
	cfg.TraceEvents = 3
	cfg.Label = "trace-test"
	m := New(cfg)
	if m.TraceRing() == nil {
		t.Fatal("TraceEvents > 0 did not attach a trace ring")
	}
	m.Run(2, func(c *Context) {
		for i := 0; i < 3; i++ {
			t0 := c.Now()
			c.Compute(5)
			c.EmitSpan(t0, c.Now()-t0, "txn", "unit")
		}
	})
	ring := m.TraceRing()
	spans := ring.Spans()
	if len(spans) != 3 {
		t.Fatalf("ring holds %d spans, want 3 (the bound)", len(spans))
	}
	if ring.Dropped() != 3 {
		t.Errorf("ring dropped %d spans, want 3", ring.Dropped())
	}
	for _, sp := range spans {
		if sp.TID != 0 && sp.TID != 1 {
			t.Errorf("span tid = %d, want 0 or 1", sp.TID)
		}
		if sp.Dur == 0 || sp.Name != "unit" || sp.Cat != "txn" {
			t.Errorf("malformed span %+v", sp)
		}
	}
}
