package ssync

import (
	"testing"
	"time"

	"tsxhpc/internal/sim"
)

// convoyBody is the mutexConvoy critical section loop (see pin_test.go).
func convoyBody(l *Mutex, a sim.Addr, rounds int) func(*sim.Context) {
	return func(c *sim.Context) {
		for i := 0; i < rounds; i++ {
			l.Lock(c)
			c.Store(a, c.Load(a)+1)
			c.Compute(uint64(20 + c.ID()%5))
			l.Unlock(c)
			c.Compute(uint64(5 + c.ID()%3))
		}
	}
}

// TestMutexConvoyRunsInline: in a 64-context Mutex convoy nearly every
// handoff goes to a thread spinning in Lock, whose next step is a data
// continuation. At least 70% of the handoffs must be served inline, not by
// a stack switch — a scheduler that silently lost the inline path would
// still produce identical results, so only this count can tell.
func TestMutexConvoyRunsInline(t *testing.T) {
	m := sim.New(pinConfig(64))
	m.Run(64, convoyBody(NewMutex(m.Mem), m.Mem.AllocLine(8), 5))
	sc := m.SchedCounts()
	share := float64(sc.InlineSteps) / float64(sc.InlineSteps+sc.Switches)
	if share < 0.70 {
		t.Fatalf("%d inline steps, %d switches: %.1f%% of handoffs inline, want ≥ 70%%",
			sc.InlineSteps, sc.Switches, 100*share)
	}
}

// BenchmarkMutexConvoyN8/N64: one op is one convoy region on a reused
// machine. Reported per simulated event: host ns and real stack switches.
// Events come from the per-Run delta of Result.Events, which counts from
// New. scripts/bench_ratchet.sh gates the N64 ns/event against
// BenchmarkHandoffPingPong.
func benchMutexConvoy(b *testing.B, n, rounds int) {
	m := sim.New(pinConfig(n))
	l, a := NewMutex(m.Mem), m.Mem.AllocLine(8)
	body := convoyBody(l, a, rounds)
	var events, prev uint64
	sc0 := m.SchedCounts()
	b.ReportAllocs()
	b.ResetTimer()
	t0 := time.Now()
	for i := 0; i < b.N; i++ {
		res := m.Run(n, body)
		events += res.Events - prev
		prev = res.Events
	}
	elapsed := time.Since(t0)
	sc := m.SchedCounts()
	b.ReportMetric(float64(elapsed.Nanoseconds())/float64(events), "ns/event")
	b.ReportMetric(float64(sc.Switches-sc0.Switches)/float64(events), "switches/event")
}

func BenchmarkMutexConvoyN8(b *testing.B)  { benchMutexConvoy(b, 8, 200) }
func BenchmarkMutexConvoyN64(b *testing.B) { benchMutexConvoy(b, 64, 25) }
