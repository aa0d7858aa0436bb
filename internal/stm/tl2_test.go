package stm

import (
	"testing"

	"tsxhpc/internal/sim"
)

func mach() (*sim.Machine, *TL2) {
	m := sim.New(sim.DefaultConfig())
	return m, New(m)
}

func TestCommitPublishes(t *testing.T) {
	m, s := mach()
	a := m.Mem.AllocLine(16)
	m.Run(1, func(c *sim.Context) {
		s.Run(c, func(tx *Txn) {
			tx.Store(a, 7)
			tx.Store(a+8, 8)
		})
	})
	if m.Mem.ReadRaw(a) != 7 || m.Mem.ReadRaw(a+8) != 8 {
		t.Fatal("writes not visible after commit")
	}
	if s.Stats.Commits != 1 {
		t.Fatalf("stats = %+v", s.Stats)
	}
}

func TestLazyVersioning(t *testing.T) {
	m, s := mach()
	a := m.Mem.AllocLine(8)
	m.Run(1, func(c *sim.Context) {
		s.Run(c, func(tx *Txn) {
			tx.Store(a, 42)
			if m.Mem.ReadRaw(a) != 0 {
				t.Error("TL2 write reached memory before commit (not lazy)")
			}
			if tx.Load(a) != 42 {
				t.Error("read-own-write failed")
			}
		})
	})
}

func TestConcurrentCounter(t *testing.T) {
	m, s := mach()
	a := m.Mem.AllocLine(8)
	const perThread = 400
	m.Run(8, func(c *sim.Context) {
		for i := 0; i < perThread; i++ {
			s.Run(c, func(tx *Txn) {
				tx.Store(a, tx.Load(a)+1)
			})
		}
	})
	if got := m.Mem.ReadRaw(a); got != 8*perThread {
		t.Fatalf("counter = %d, want %d", got, 8*perThread)
	}
	if s.Stats.TotalAborts() == 0 {
		t.Fatal("expected aborts under contention")
	}
}

func TestDisjointWritesDoNotAbort(t *testing.T) {
	m, s := mach()
	// One padded counter per thread: no conflicts expected.
	base := m.Mem.AllocArray(8, sim.LineSize)
	m.Run(8, func(c *sim.Context) {
		a := base + sim.Addr(c.ID()*sim.LineSize)
		for i := 0; i < 100; i++ {
			s.Run(c, func(tx *Txn) {
				tx.Store(a, tx.Load(a)+1)
			})
		}
	})
	for i := 0; i < 8; i++ {
		if got := m.Mem.ReadRaw(base + sim.Addr(i*sim.LineSize)); got != 100 {
			t.Fatalf("thread %d counter = %d", i, got)
		}
	}
	if s.Stats.TotalAborts() != 0 {
		t.Fatalf("disjoint transactions aborted %d times", s.Stats.TotalAborts())
	}
}

func TestReadOnlyTransactionsCheap(t *testing.T) {
	m, s := mach()
	a := m.Mem.AllocLine(8)
	m.Mem.WriteRaw(a, 5)
	var roCost, rwCost uint64
	m.Run(1, func(c *sim.Context) {
		t0 := c.Now()
		s.Run(c, func(tx *Txn) { tx.Load(a) })
		roCost = c.Now() - t0
		t0 = c.Now()
		s.Run(c, func(tx *Txn) { tx.Store(a, tx.Load(a)) })
		rwCost = c.Now() - t0
	})
	if roCost >= rwCost {
		t.Fatalf("read-only commit (%d) should be cheaper than write commit (%d)", roCost, rwCost)
	}
}

func TestInstrumentationOverheadVsPlain(t *testing.T) {
	// The core Figure 2 effect: single-thread TL2 is much slower than plain
	// execution because every access pays software instrumentation.
	m, s := mach()
	n := 256
	arr := m.Mem.AllocLine(8 * n)
	var tl2Cost, plainCost uint64
	m.Run(1, func(c *sim.Context) {
		t0 := c.Now()
		for i := 0; i < n; i++ {
			s.Run(c, func(tx *Txn) {
				a := arr + sim.Addr(i*8)
				tx.Store(a, tx.Load(a)+1)
			})
		}
		tl2Cost = c.Now() - t0
		t0 = c.Now()
		for i := 0; i < n; i++ {
			a := arr + sim.Addr(i*8)
			c.Store(a, c.Load(a)+1)
		}
		plainCost = c.Now() - t0
	})
	if tl2Cost < 3*plainCost {
		t.Fatalf("TL2 overhead too low: tl2=%d plain=%d", tl2Cost, plainCost)
	}
}

func TestAbortRateMetric(t *testing.T) {
	var s Stats
	if s.AbortRate() != 0 {
		t.Fatal("empty stats should be 0")
	}
	s.Commits, s.AbortRead, s.AbortValidate = 2, 1, 1
	if s.AbortRate() != 50 {
		t.Fatalf("AbortRate = %v", s.AbortRate())
	}
	s.Reset()
	if s.Commits != 0 || s.TotalAborts() != 0 {
		t.Fatal("Reset did not zero")
	}
}

func TestWriteSkewPreventedBySerializability(t *testing.T) {
	// Classic STM litmus: two transactions each read both cells and write
	// one; TL2's read validation must keep x+y invariant-consistent.
	m, s := mach()
	x := m.Mem.AllocLine(8)
	y := m.Mem.AllocLine(8)
	m.Mem.WriteRaw(x, 50)
	m.Mem.WriteRaw(y, 50)
	m.Run(2, func(c *sim.Context) {
		for i := 0; i < 200; i++ {
			s.Run(c, func(tx *Txn) {
				sum := tx.Load(x) + tx.Load(y)
				if sum != 100 {
					t.Errorf("invariant broken: sum=%d", sum)
				}
				if c.ID() == 0 {
					tx.Store(x, tx.Load(x)+1)
					tx.Store(y, tx.Load(y)-1)
				} else {
					tx.Store(y, tx.Load(y)+1)
					tx.Store(x, tx.Load(x)-1)
				}
			})
		}
	})
	if m.Mem.ReadRaw(x)+m.Mem.ReadRaw(y) != 100 {
		t.Fatalf("final sum = %d", m.Mem.ReadRaw(x)+m.Mem.ReadRaw(y))
	}
}

// TestProbeCountersMirrorStats arms the probe layer on a contended TL2 run
// and checks that the tl2/* names read the Stats fields: starts, commits,
// the validation-failure breakdown summing to the abort total with every
// attempt ending in one outcome, global-version advances matching write
// commits, and commit/abort spans on the trace ring.
func TestProbeCountersMirrorStats(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Metrics = true
	cfg.TraceEvents = 4096
	m := sim.New(cfg)
	s := New(m)
	a := m.Mem.AllocLine(8)
	const threads, per = 4, 50
	m.Run(threads, func(c *sim.Context) {
		for i := 0; i < per; i++ {
			s.Run(c, func(tx *Txn) { tx.Store(a, tx.Load(a)+1) })
		}
	})
	if got := m.Mem.ReadRaw(a); got != threads*per {
		t.Fatalf("counter = %d, want %d", got, threads*per)
	}
	snap := m.ProbeSnapshot()
	if got := snap.Counter("tl2/starts"); got != s.Stats.Starts {
		t.Errorf("tl2/starts = %d, Stats.Starts = %d", got, s.Stats.Starts)
	}
	if got := snap.Counter("tl2/commits"); got != s.Stats.Commits {
		t.Errorf("tl2/commits = %d, Stats.Commits = %d", got, s.Stats.Commits)
	}
	abortSum := snap.Counter("tl2/abort/read-validate") +
		snap.Counter("tl2/abort/lock-busy") +
		snap.Counter("tl2/abort/commit-validate")
	if abortSum != s.Stats.TotalAborts() {
		t.Errorf("abort-cause sum = %d, Stats.TotalAborts = %d", abortSum, s.Stats.TotalAborts())
	}
	// Every attempt ends in exactly one outcome.
	if s.Stats.Starts != s.Stats.Commits+s.Stats.TotalAborts() {
		t.Errorf("starts = %d, commits + aborts = %d", s.Stats.Starts, s.Stats.Commits+s.Stats.TotalAborts())
	}
	if s.Stats.TotalAborts() == 0 {
		t.Error("contended run produced no aborts; the breakdown is untested")
	}
	// Every committed transaction here writes, so each advances the gv.
	if got := snap.Counter("tl2/gv/advances"); got != s.Stats.Commits {
		t.Errorf("tl2/gv/advances = %d, want %d", got, s.Stats.Commits)
	}
	ring := m.TraceRing()
	if ring == nil {
		t.Fatal("TraceEvents did not attach a ring")
	}
	var commits, aborts int
	for _, sp := range ring.Spans() {
		switch sp.Name {
		case "tl2:commit":
			commits++
		case "tl2:abort":
			aborts++
		}
	}
	if uint64(commits) != s.Stats.Commits || uint64(aborts) != s.Stats.TotalAborts() {
		t.Errorf("spans: %d commits, %d aborts; stats: %d, %d", commits, aborts, s.Stats.Commits, s.Stats.TotalAborts())
	}
}

// TestFreeAndLargeWriteSet covers the TM_FREE discipline (a transactional
// free takes effect only at commit) and a write set big enough to grow the
// write-map past its inline capacity.
func TestFreeAndLargeWriteSet(t *testing.T) {
	m, s := mach()
	base := m.Mem.Alloc(64 * 40)
	blk := m.Mem.Alloc(64)
	m.Run(1, func(c *sim.Context) {
		s.Run(c, func(tx *Txn) {
			for i := 0; i < 40; i++ {
				tx.Store(base+sim.Addr(64*i), uint64(i+1))
			}
			tx.Free(blk, 64)
		})
	})
	if s.Stats.Commits != 1 {
		t.Fatalf("stats = %+v", s.Stats)
	}
	for i := 0; i < 40; i++ {
		if got := m.Mem.ReadRaw(base + sim.Addr(64*i)); got != uint64(i+1) {
			t.Fatalf("word %d = %d after commit", i, got)
		}
	}
}
