package htm

import (
	"testing"

	"tsxhpc/internal/sim"
)

func mach() (*sim.Machine, *Runtime) {
	m := sim.New(sim.DefaultConfig())
	return m, New(m)
}

func TestCommitPublishesWrites(t *testing.T) {
	m, r := mach()
	a := m.Mem.AllocLine(16)
	m.Run(1, func(c *sim.Context) {
		cause, _ := r.Try(c, func(tx *Txn) {
			tx.Store(a, 7)
			tx.Store(a+8, 9)
		})
		if cause != NoAbort {
			t.Errorf("cause = %v", cause)
		}
	})
	if m.Mem.ReadRaw(a) != 7 || m.Mem.ReadRaw(a+8) != 9 {
		t.Fatal("committed writes not visible")
	}
	if r.Stats.Commits != 1 || r.Stats.TotalAborts() != 0 {
		t.Fatalf("stats = %+v", r.Stats)
	}
}

func TestWritesInvisibleUntilCommit(t *testing.T) {
	m, r := mach()
	a := m.Mem.AllocLine(8)
	m.Run(1, func(c *sim.Context) {
		r.Try(c, func(tx *Txn) {
			tx.Store(a, 42)
			if m.Mem.ReadRaw(a) != 0 {
				t.Error("speculative write reached memory before commit")
			}
		})
	})
}

func TestExplicitAbortDiscards(t *testing.T) {
	m, r := mach()
	a := m.Mem.AllocLine(8)
	m.Run(1, func(c *sim.Context) {
		cause, noRetry := r.Try(c, func(tx *Txn) {
			tx.Store(a, 42)
			tx.Abort(Explicit)
		})
		if cause != Explicit || !noRetry {
			t.Errorf("cause=%v noRetry=%v", cause, noRetry)
		}
	})
	if m.Mem.ReadRaw(a) != 0 {
		t.Fatal("aborted write leaked to memory")
	}
	if r.Stats.Aborts[Explicit] != 1 {
		t.Fatalf("stats = %+v", r.Stats)
	}
}

func TestReadOwnWrite(t *testing.T) {
	m, r := mach()
	a := m.Mem.AllocLine(8)
	m.Mem.WriteRaw(a, 5)
	m.Run(1, func(c *sim.Context) {
		r.Try(c, func(tx *Txn) {
			if v := tx.Load(a); v != 5 {
				t.Errorf("initial load = %d", v)
			}
			tx.Store(a, 11)
			if v := tx.Load(a); v != 11 {
				t.Errorf("read-own-write = %d, want 11", v)
			}
		})
	})
	if m.Mem.ReadRaw(a) != 11 {
		t.Fatal("final value wrong")
	}
}

func TestWriteWriteConflictAborts(t *testing.T) {
	m, r := mach()
	a := m.Mem.AllocLine(8)
	sawConflict := false
	m.Run(2, func(c *sim.Context) {
		if c.ID() == 0 {
			cause, _ := r.Try(c, func(tx *Txn) {
				tx.Store(a, 1)
				tx.Ctx().Compute(5000) // hold the line while thread 1 writes
				tx.Load(a)             // doom noticed here
			})
			if cause == Conflict {
				sawConflict = true
			}
			return
		}
		c.Compute(1000)
		r.Try(c, func(tx *Txn) { tx.Store(a, 2) })
	})
	if !sawConflict {
		t.Fatal("expected a conflict abort")
	}
	if m.Mem.ReadRaw(a) != 2 {
		t.Fatalf("memory = %d, want only thread 1's committed value", m.Mem.ReadRaw(a))
	}
}

func TestReadWriteConflictAborts(t *testing.T) {
	m, r := mach()
	a := m.Mem.AllocLine(8)
	var cause0 AbortCause
	m.Run(2, func(c *sim.Context) {
		if c.ID() == 0 {
			cause0, _ = r.Try(c, func(tx *Txn) {
				tx.Load(a)
				tx.Ctx().Compute(5000)
				tx.Load(a)
			})
			return
		}
		c.Compute(1000)
		c.Store(a, 9) // non-transactional remote store into the read set
	})
	if cause0 != Conflict {
		t.Fatalf("cause = %v, want Conflict (remote plain store must abort readers)", cause0)
	}
}

func TestRemoteReadOfWriteSetAborts(t *testing.T) {
	m, r := mach()
	a := m.Mem.AllocLine(8)
	var cause0 AbortCause
	m.Run(2, func(c *sim.Context) {
		if c.ID() == 0 {
			cause0, _ = r.Try(c, func(tx *Txn) {
				tx.Store(a, 3)
				tx.Ctx().Compute(5000)
				tx.Load(a)
			})
			return
		}
		c.Compute(1000)
		c.Load(a) // a plain read of a speculatively written line
	})
	if cause0 != Conflict {
		t.Fatalf("cause = %v, want Conflict", cause0)
	}
}

func TestConcurrentReadersDoNotConflict(t *testing.T) {
	m, r := mach()
	a := m.Mem.AllocLine(8)
	aborts := 0
	m.Run(4, func(c *sim.Context) {
		cause, _ := r.Try(c, func(tx *Txn) {
			tx.Load(a)
			tx.Ctx().Compute(1000)
			tx.Load(a)
		})
		if cause != NoAbort {
			aborts++
		}
	})
	if aborts != 0 {
		t.Fatalf("read-sharing transactions aborted %d times", aborts)
	}
}

func TestCapacityAbortOnWriteSetOverflow(t *testing.T) {
	m, r := mach()
	// 9 distinct lines mapping to one cache set (stride 64 sets * 64 B).
	base := m.Mem.AllocLine(16 * 4096)
	var cause AbortCause
	m.Run(1, func(c *sim.Context) {
		cause, _ = r.Try(c, func(tx *Txn) {
			for i := 0; i < 9; i++ {
				tx.Store(base+sim.Addr(i*4096), uint64(i))
			}
		})
	})
	if cause != Capacity {
		t.Fatalf("cause = %v, want Capacity", cause)
	}
	for i := 0; i < 9; i++ {
		if m.Mem.ReadRaw(base+sim.Addr(i*4096)) != 0 {
			t.Fatal("speculative write survived a capacity abort")
		}
	}
}

func TestReadSetOverflowDemotesToBloom(t *testing.T) {
	m, r := mach()
	base := m.Mem.AllocLine(16 * 4096)
	var cause AbortCause
	m.Run(1, func(c *sim.Context) {
		cause, _ = r.Try(c, func(tx *Txn) {
			// Reads overflowing one set must NOT abort: evicted read lines
			// move to the secondary structure.
			for i := 0; i < 12; i++ {
				tx.Load(base + sim.Addr(i*4096))
			}
		})
	})
	if cause != NoAbort {
		t.Fatalf("cause = %v, want NoAbort (read overflow is tracked, not fatal)", cause)
	}
}

func TestBloomTrackedReadStillConflicts(t *testing.T) {
	m, r := mach()
	base := m.Mem.AllocLine(16 * 4096)
	var cause0 AbortCause
	m.Run(2, func(c *sim.Context) {
		if c.ID() == 0 {
			cause0, _ = r.Try(c, func(tx *Txn) {
				for i := 0; i < 12; i++ {
					tx.Load(base + sim.Addr(i*4096)) // overflow the set
				}
				tx.Ctx().Compute(8000)
				tx.Load(base) // notice the doom
			})
			return
		}
		c.Compute(3000)
		c.Store(base, 1) // line 0 was demoted to the Bloom filter
	})
	if cause0 != Conflict {
		t.Fatalf("cause = %v, want Conflict via secondary tracking", cause0)
	}
}

func TestSyscallAbortsWithNoRetry(t *testing.T) {
	m, r := mach()
	var cause AbortCause
	var noRetry bool
	m.Run(1, func(c *sim.Context) {
		cause, noRetry = r.Try(c, func(tx *Txn) {
			tx.Ctx().Syscall(100)
			tx.Load(1024) // reach a transactional op to notice the doom
		})
	})
	if cause != SyscallAbort || !noRetry {
		t.Fatalf("cause=%v noRetry=%v, want SyscallAbort/no-retry", cause, noRetry)
	}
}

func TestCommitNoticesPendingDoom(t *testing.T) {
	m, r := mach()
	a := m.Mem.AllocLine(8)
	var cause0 AbortCause
	m.Run(2, func(c *sim.Context) {
		if c.ID() == 0 {
			cause0, _ = r.Try(c, func(tx *Txn) {
				tx.Store(a, 1)
				tx.Ctx().Compute(5000)
				// No more accesses: the doom must be caught by Commit.
			})
			return
		}
		c.Compute(1000)
		c.Store(a, 2)
	})
	if cause0 != Conflict {
		t.Fatalf("cause = %v, want Conflict detected at commit", cause0)
	}
	if m.Mem.ReadRaw(a) != 2 {
		t.Fatal("aborted transaction's write leaked")
	}
}

func TestMarksClearedAfterCommit(t *testing.T) {
	m, r := mach()
	a := m.Mem.AllocLine(8)
	m.Run(2, func(c *sim.Context) {
		if c.ID() == 0 {
			r.Try(c, func(tx *Txn) { tx.Store(a, 1) })
			c.Compute(10000)
			return
		}
		c.Compute(5000)
		// By now thread 0's transaction committed; a plain write must not
		// find any stale transactional state.
		c.Store(a, 2)
		cause, _ := r.Try(c, func(tx *Txn) { tx.Store(a, 3) })
		if cause != NoAbort {
			t.Errorf("stale marks caused abort: %v", cause)
		}
	})
	if r.Stats.Commits != 2 {
		t.Fatalf("commits = %d, want 2", r.Stats.Commits)
	}
}

func TestNestedBeginPanics(t *testing.T) {
	m, r := mach()
	m.Run(1, func(c *sim.Context) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on nested Begin")
			}
			// Leave the context clean for the outer Try recovery.
			if tx := r.Active(c); tx != nil {
				c.InTxn = false
				c.TxnData = nil
			}
		}()
		r.Begin(c)
		r.Begin(c)
	})
}

func TestRetryLoopCounterCorrectness(t *testing.T) {
	m, r := mach()
	a := m.Mem.AllocLine(8)
	const perThread = 300
	m.Run(8, func(c *sim.Context) {
		for i := 0; i < perThread; i++ {
			for {
				cause, _ := r.Try(c, func(tx *Txn) {
					tx.Store(a, tx.Load(a)+1)
				})
				if cause == NoAbort {
					break
				}
				c.Compute(uint64(c.Rand.Int63n(100)) + 1)
			}
		}
	})
	if got := m.Mem.ReadRaw(a); got != 8*perThread {
		t.Fatalf("counter = %d, want %d (atomicity violated)", got, 8*perThread)
	}
	if r.Stats.Aborts[Conflict] == 0 {
		t.Fatal("expected some conflict aborts under this much contention")
	}
}

func TestAbortRateMetric(t *testing.T) {
	var s Stats
	if s.AbortRate() != 0 {
		t.Fatal("empty stats should report 0")
	}
	s.Commits = 3
	s.Aborts[Conflict] = 1
	if got := s.AbortRate(); got != 25 {
		t.Fatalf("AbortRate = %v, want 25", got)
	}
}

func TestAbortCauseStrings(t *testing.T) {
	names := map[AbortCause]string{
		NoAbort: "none", Conflict: "conflict", Capacity: "capacity",
		SyscallAbort: "syscall", Explicit: "explicit", LockBusy: "lock-busy",
	}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), want)
		}
	}
}

func TestBloomProperties(t *testing.T) {
	var b bloom
	lines := []sim.Addr{0, 64, 128, 4096, 65536}
	for _, l := range lines {
		b.add(l)
	}
	for _, l := range lines {
		if !b.has(l) {
			t.Fatalf("bloom lost line %#x", l)
		}
	}
	var empty bloom
	if empty.has(64) {
		t.Fatal("empty bloom claims membership")
	}
}

// TestSpuriousAbortHook checks the fault-injection entry point New installs
// on its machine: firing the hook mid-transaction aborts with the Spurious
// cause and the may-retry hint (an environmental disturbance says nothing
// about the transaction itself), and firing it with no transaction active is
// a harmless no-op.
func TestSpuriousAbortHook(t *testing.T) {
	m, r := mach()
	if m.SpuriousAbortHook == nil {
		t.Fatal("New did not install SpuriousAbortHook")
	}
	var cause AbortCause
	var noRetry bool
	m.Run(1, func(c *sim.Context) {
		m.SpuriousAbortHook(c) // outside any transaction: must not panic
		cause, noRetry = r.Try(c, func(tx *Txn) {
			tx.Load(tx.Ctx().Machine().Mem.AllocLine(8))
			m.SpuriousAbortHook(c)
			tx.Ctx().Compute(10) // notice the doom at the next timed access
			tx.Load(tx.Ctx().Machine().Mem.AllocLine(8))
		})
	})
	if cause != Spurious {
		t.Fatalf("cause = %v, want Spurious", cause)
	}
	if noRetry {
		t.Fatal("spurious abort hinted no-retry; it must always be retryable")
	}
	if r.Stats.Aborts[Spurious] != 1 {
		t.Fatalf("Aborts[Spurious] = %d, want 1", r.Stats.Aborts[Spurious])
	}
}

// TestProbeCountersMirrorStats arms the probe layer and checks that the
// htm/starts, htm/commits and htm/abort/<cause> names read the Stats fields,
// the counts the abort-anatomy report is built on.
func TestProbeCountersMirrorStats(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Metrics = true
	m := sim.New(cfg)
	r := New(m)
	a := m.Mem.AllocLine(8)
	m.Run(1, func(c *sim.Context) {
		if cause, _ := r.Try(c, func(tx *Txn) { tx.Store(a, 1) }); cause != NoAbort {
			t.Errorf("commit attempt aborted: %v", cause)
		}
		if cause, _ := r.Try(c, func(tx *Txn) { tx.Abort(Explicit) }); cause != Explicit {
			t.Errorf("cause = %v, want Explicit", cause)
		}
	})
	snap := m.ProbeSnapshot()
	if got := snap.Counter("htm/starts"); got != r.Stats.Starts {
		t.Errorf("htm/starts = %d, Stats.Starts = %d", got, r.Stats.Starts)
	}
	if got := snap.Counter("htm/commits"); got != r.Stats.Commits {
		t.Errorf("htm/commits = %d, Stats.Commits = %d", got, r.Stats.Commits)
	}
	if got := snap.Counter("htm/abort/explicit"); got != 1 {
		t.Errorf("htm/abort/explicit = %d, want 1", got)
	}
	// Every cause has a bound (possibly zero) counter, so reports are
	// structurally identical across cells.
	for cause := AbortCause(0); cause < NumCauses; cause++ {
		found := false
		for _, cv := range snap.Counters {
			if cv.Name == "htm/abort/"+cause.String() {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no counter registered for cause %v", cause)
		}
	}
}

// TestProbeWastedCycleAttribution checks the virtual-time contract on
// aborts: the cycles a doomed attempt charged inside PhaseTxn are
// retroactively reclassified to PhaseWasted, and committed work stays in
// PhaseTxn.
func TestProbeWastedCycleAttribution(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Metrics = true
	m := sim.New(cfg)
	r := New(m)
	a := m.Mem.AllocLine(8)
	m.Run(1, func(c *sim.Context) {
		prev := c.SetPhase(sim.PhaseTxn)
		r.Try(c, func(tx *Txn) {
			tx.Store(a, 1)
			tx.Abort(Explicit)
		})
		r.Try(c, func(tx *Txn) { tx.Store(a, 2) })
		c.SetPhase(prev)
	})
	snap := m.ProbeSnapshot()
	wasted := snap.Counter("vt/sim/wasted")
	txn := snap.Counter("vt/sim/txn")
	if wasted == 0 {
		t.Error("aborted attempt left no PhaseWasted cycles")
	}
	if txn == 0 {
		t.Error("committed attempt left no PhaseTxn cycles")
	}
}

// TestStatsResetAndFree covers the bookkeeping edges: Stats.Reset zeroes
// counters, transactional Free takes effect only on commit, and Doomed
// reports a marked-for-abort transaction.
func TestStatsResetAndFree(t *testing.T) {
	m, r := mach()
	a := m.Mem.AllocLine(8)
	m.Run(1, func(c *sim.Context) {
		blk := m.Mem.Alloc(64)
		if cause, _ := r.Try(c, func(tx *Txn) {
			tx.Store(a, 1)
			tx.Free(blk, 64)
		}); cause != NoAbort {
			t.Errorf("cause = %v", cause)
		}
	})
	if r.Stats.Commits != 1 {
		t.Fatalf("stats = %+v", r.Stats)
	}
	r.Stats.Reset()
	if r.Stats.Commits != 0 || r.Stats.Starts != 0 {
		t.Fatalf("Reset left %+v", r.Stats)
	}
}

// TestTryRepanicsOnProgramError: a non-abort panic inside a transaction is
// a program error — Try must clean the txn up and re-raise it, not swallow
// it as an abort.
func TestTryRepanicsOnProgramError(t *testing.T) {
	m, r := mach()
	m.Run(1, func(c *sim.Context) {
		defer func() {
			if p := recover(); p == nil {
				t.Error("program panic swallowed by Try")
			}
			if r.Active(c) != nil {
				t.Error("txn still active after program panic")
			}
		}()
		r.Try(c, func(tx *Txn) {
			if tx.Doomed() {
				t.Error("fresh txn reports Doomed")
			}
			panic("boom")
		})
	})
}

// TestLargeWriteSetGrowsTracking: a transaction touching more lines than the
// tracking table's initial capacity must grow it and still commit (the
// capacity-abort threshold is the L1 way budget, not the table size).
func TestLargeWriteSetGrowsTracking(t *testing.T) {
	m, r := mach()
	base := m.Mem.Alloc(64 * 64)
	m.Run(1, func(c *sim.Context) {
		cause, _ := r.Try(c, func(tx *Txn) {
			for i := 0; i < 20; i++ {
				tx.Store(base+sim.Addr(64*i), uint64(i))
			}
		})
		// A 20-line write set may legitimately capacity-abort depending on
		// the cache geometry; both outcomes exercise the table paths.
		if cause != NoAbort && cause != Capacity {
			t.Errorf("cause = %v", cause)
		}
	})
}
