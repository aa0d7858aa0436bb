package core

import (
	"testing"

	"tsxhpc/internal/probe"
	"tsxhpc/internal/sim"
	"tsxhpc/internal/tm"
)

// TestMonitorTL2 runs the producer/consumer monitor under the lock-free TL2
// module: conflicting sections retry under commit-time validation and waits
// restart the buffered body, yet the monitor outcome is identical to the
// lock-based modes.
func TestMonitorTL2(t *testing.T) { runMonitor(t, ModeTL2) }

// TestBroadcastWakesAll drives the gate pattern — N threads park until a
// flag flips, one thread flips it and broadcasts — through every locking
// module. Broadcast must release all waiters under pthread semantics,
// deferred-to-commit semantics (tsx.cond), abort-and-fallback semantics
// (tsx.abort), and the polling modes where it is a no-op.
func TestBroadcastWakesAll(t *testing.T) {
	const waiters = 3
	for _, mode := range []LockMode{ModeMutex, ModeTSXAbort, ModeTSXCond, ModeMutexBusyWait, ModeTSXBusyWait, ModeTL2} {
		t.Run(mode.String(), func(t *testing.T) {
			m := sim.New(sim.DefaultConfig())
			lm := NewLockModule(m, mode)
			r := lm.NewRegion()
			gate := lm.NewCond()
			flag := m.Mem.AllocLine(8)
			passed := m.Mem.AllocLine(8)
			m.Run(waiters+1, func(c *sim.Context) {
				if c.ID() < waiters {
					r.Do(c, func(cs CS) {
						if cs.Ctx() != c {
							t.Errorf("%v: CS.Ctx() does not return the running context", mode)
						}
						for cs.Load(flag) == 0 {
							cs.Wait(gate)
						}
						cs.Store(passed, cs.Load(passed)+1)
					})
					return
				}
				// Open the gate only after the waiters have had time to park.
				c.Compute(50000)
				r.Do(c, func(cs CS) {
					cs.Store(flag, 1)
					cs.Broadcast(gate)
				})
			})
			if got := m.Mem.ReadRaw(passed); got != waiters {
				t.Fatalf("%v: %d threads passed the gate, want %d", mode, got, waiters)
			}
		})
	}
}

// TestLockModeTL2String pins the sixth mode's name and the out-of-range
// fallback spelling.
func TestLockModeTL2String(t *testing.T) {
	if ModeTL2.String() != "tl2" {
		t.Errorf("ModeTL2.String() = %q", ModeTL2.String())
	}
	if ModeTL2.Elides() {
		t.Error("ModeTL2 does not elide a lock; Elides() must be false")
	}
	if got := LockMode(99).String(); got != "mode(99)" {
		t.Errorf("LockMode(99).String() = %q", got)
	}
}

// TestAdaptiveCoarsenerProbeCounters: on a metrics-armed machine the
// coarsener names its AIMD transition counts under adaptive/ and actually
// moves them (grow on clean regions).
func TestAdaptiveCoarsenerProbeCounters(t *testing.T) {
	probe.ResetGlobal()
	defer probe.ResetGlobal()
	cfg := sim.DefaultConfig()
	cfg.Metrics = true
	m := sim.New(cfg)
	sys := tm.NewSystem(m, tm.TSX)
	a := NewAdaptiveCoarsener(sys)
	acc := m.Mem.AllocLine(8)
	m.Run(1, func(c *sim.Context) {
		a.Do(c, 64, func(tx tm.Tx, i int) {
			tx.Store(acc, tx.Load(acc)+1)
		})
	})
	if m.Mem.ReadRaw(acc) != 64 {
		t.Fatalf("coarsened loop computed %d, want 64", m.Mem.ReadRaw(acc))
	}
	if a.Grows == 0 {
		t.Error("uncontended coarsened loop never recorded a granularity grow")
	}
	snap := m.ProbeSnapshot()
	if got := snap.Counter("adaptive/grow"); got != a.Grows {
		t.Errorf("adaptive/grow = %d, Grows = %d", got, a.Grows)
	}
	for _, name := range []string{"adaptive/grow", "adaptive/shrink", "adaptive/floor-pin"} {
		found := false
		for _, cv := range snap.Counters {
			found = found || cv.Name == name
		}
		if !found {
			t.Errorf("coarsener on a metrics machine did not name %s", name)
		}
	}
}
