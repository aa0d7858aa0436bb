package sim

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// The loops the inline continuations replaced, kept as the reference they
// must match charge for charge: the per-quantum Compute loop, the mutex CAS
// spin written with Compute+RMW, and the lock-busy wait written with
// Load+Compute. refCompute only ever calls Compute with at most one quantum,
// so the reference never creates a continuation itself.

func refCompute(c *Context, cyc uint64) {
	for cyc > computeQuantum {
		c.Compute(computeQuantum)
		cyc -= computeQuantum
	}
	c.Compute(cyc)
}

func refSpinCAS(c *Context, a Addr, pre, gap uint64, limit int) bool {
	for n := 0; ; n++ {
		refCompute(c, pre)
		old, _ := c.RMW(a, func(v uint64) uint64 {
			if v == 0 {
				return 1
			}
			return v
		})
		if old == 0 {
			return true
		}
		if n >= limit {
			return false
		}
		refCompute(c, gap)
	}
}

func refSpinWhileSet(c *Context, a Addr, gap uint64, limit int) bool {
	for n := 0; c.Load(a) != 0; n++ {
		if n >= limit {
			return false
		}
		refCompute(c, gap)
	}
	return true
}

// contOp is one step of a generated workload.
type contOp struct {
	kind     int // opCompute, opCAS, opWait, opSet, opLoad, opPhase
	word     int
	size     uint64 // Compute size, or the hold time after a CAS / set
	pre, gap uint64
	limit    int
	phase    Phase
}

const (
	opCompute = iota
	opCAS
	opWait
	opSet
	opLoad
	opPhase
	numOps
)

var (
	contSizes  = []uint64{0, 1, 159, 160, 161, 320, 321, 1000}
	contPres   = []uint64{0, 19, 200, 333} // 200 and 333 exceed the quantum
	contGaps   = []uint64{0, 6, 170, 400}
	contLimits = []int{0, 1, 600}
)

// genContOps draws a random op list per context.
func genContOps(rng *rand.Rand, n, per int) [][]contOp {
	ops := make([][]contOp, n)
	for id := range ops {
		for k := 0; k < per; k++ {
			op := contOp{
				kind:  rng.Intn(numOps),
				word:  rng.Intn(3),
				size:  contSizes[rng.Intn(len(contSizes))],
				pre:   contPres[rng.Intn(len(contPres))],
				gap:   contGaps[rng.Intn(len(contGaps))],
				limit: contLimits[rng.Intn(len(contLimits))],
				phase: Phase(rng.Intn(NumPhases)),
			}
			ops[id] = append(ops[id], op)
		}
	}
	return ops
}

// contRun is everything a run is compared on.
type contRun struct {
	trace  uint64 // hash of the (thread, clock, cycles) charge sequence
	nCharg int
	res    Result
	mem    []uint64
	phases [][NumPhases]uint64
	counts SchedCounts
	won    []int // acquisitions / clear observations per context
}

// runContOps executes ops on a fresh machine, with the primitives or with
// the reference loops.
func runContOps(cfg Config, ops [][]contOp, ref bool) contRun {
	cfg.Metrics = true
	m := New(cfg)
	n := len(ops)
	base := m.Mem.AllocLine(2 * LineSize)
	words := []Addr{base, base + LineSize, base + 8} // word 2 shares word 0's line
	var r contRun
	r.trace = 14695981039346656037
	m.TickHook = func(c *Context, cyc uint64) uint64 {
		for _, v := range [3]uint64{uint64(c.id), c.clock, cyc} {
			r.trace = (r.trace ^ v) * 1099511628211
		}
		r.nCharg++
		return 0
	}
	compute := func(c *Context, cyc uint64) {
		if ref {
			refCompute(c, cyc)
		} else {
			c.Compute(cyc)
		}
	}
	r.won = make([]int, n)
	r.res = m.Run(n, func(c *Context) {
		for _, op := range ops[c.id] {
			a := words[op.word]
			switch op.kind {
			case opCompute:
				compute(c, op.size)
			case opCAS:
				var ok bool
				if ref {
					ok = refSpinCAS(c, a, op.pre, op.gap, op.limit)
				} else {
					ok = c.SpinCAS(a, op.pre, op.gap, op.limit)
				}
				if ok {
					r.won[c.id]++
					compute(c, op.size)
					c.Store(a, 0)
				}
			case opWait:
				var ok bool
				if ref {
					ok = refSpinWhileSet(c, a, op.gap, op.limit)
				} else {
					ok = c.SpinWhileSet(a, op.gap, op.limit)
				}
				if ok {
					r.won[c.id]++
				}
			case opSet:
				c.Store(a, 1)
				compute(c, op.size)
				c.Store(a, 0)
			case opLoad:
				c.Load(a)
			case opPhase:
				c.SetPhase(op.phase)
			}
		}
	})
	r.mem = append([]uint64(nil), m.Mem.words...)
	for id := 0; id < n; id++ {
		r.phases = append(r.phases, m.probes.cycles[id])
	}
	r.counts = m.SchedCounts()
	return r
}

func contConfig(n int) Config {
	cfg := Config{Sockets: 1, Cores: 4, ThreadsPerCore: 2, Costs: DefaultCosts(), Seed: 1}
	switch {
	case n == 1:
		cfg.Cores, cfg.ThreadsPerCore = 1, 1
	case n <= 8:
	case n <= 64:
		cfg.Sockets, cfg.Cores = 4, 8
	default:
		cfg.Sockets, cfg.Cores, cfg.ThreadsPerCore = 4, 8, 4
	}
	return cfg
}

func compareContRuns(t *testing.T, got, want contRun) {
	t.Helper()
	if got.trace != want.trace || got.nCharg != want.nCharg {
		t.Fatalf("charge sequence differs: %d charges (hash %#x), reference %d (hash %#x)",
			got.nCharg, got.trace, want.nCharg, want.trace)
	}
	if fmt.Sprint(got.res) != fmt.Sprint(want.res) {
		t.Fatalf("result %+v, reference %+v", got.res, want.res)
	}
	if fmt.Sprint(got.mem) != fmt.Sprint(want.mem) {
		t.Fatal("final memory differs from the reference")
	}
	if fmt.Sprint(got.phases) != fmt.Sprint(want.phases) {
		t.Fatalf("phase cycles %v, reference %v", got.phases, want.phases)
	}
	if fmt.Sprint(got.won) != fmt.Sprint(want.won) {
		t.Fatalf("spin outcomes %v, reference %v", got.won, want.won)
	}
}

// TestInlineContinuationsMatchReference drives random mixes of Compute
// sizes around the quantum, CAS spins and lock-busy waits (pre and gap
// costs above the quantum, gap limits 0, 1 and 600) on 1 to 128 contexts,
// with and without Invariants, and checks that the inline continuations
// reproduce the reference loops exactly: the per-charge (thread, clock,
// cycles) sequence, the Result, every memory word, the per-thread phase
// cycles and each spin's outcome.
func TestInlineContinuationsMatchReference(t *testing.T) {
	seeds := 3
	if testing.Short() {
		seeds = 2
	}
	for _, n := range []int{1, 2, 8, 33, 128} {
		for _, inv := range []bool{false, true} {
			for seed := 0; seed < seeds; seed++ {
				t.Run(fmt.Sprintf("n%d/inv=%v/seed%d", n, inv, seed), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(seed*1000 + n)))
					ops := genContOps(rng, n, 10)
					cfg := contConfig(n)
					cfg.Invariants = inv
					want := runContOps(cfg, ops, true)
					got := runContOps(cfg, ops, false)
					compareContRuns(t, got, want)
					if want.counts.InlineSteps != 0 {
						t.Fatalf("reference run stepped %d continuations inline", want.counts.InlineSteps)
					}
					if n > 1 && got.counts.Switches >= want.counts.Switches {
						t.Fatalf("switches %d, reference %d: inline steps saved none", got.counts.Switches, want.counts.Switches)
					}
				})
			}
		}
	}
}

// TestInlineContinuationsOnBlockAndFinish covers the two other dispatch
// paths: a context that blocks, and one that finishes, while the next
// runnable contexts are partway through long Computes and spins. Both must
// step them inline and match the reference.
func TestInlineContinuationsOnBlockAndFinish(t *testing.T) {
	run := func(ref bool) contRun {
		m := New(contConfig(4))
		w := m.Mem.AllocLine(8)
		var r contRun
		m.TickHook = func(c *Context, cyc uint64) uint64 {
			for _, v := range [3]uint64{uint64(c.id), c.clock, cyc} {
				r.trace = (r.trace ^ v) * 1099511628211
			}
			r.nCharg++
			return 0
		}
		var sleeper *Context
		r.won = make([]int, 4)
		r.res = m.Run(4, func(c *Context) {
			switch c.id {
			case 0:
				sleeper = c
				c.Compute(10)
				c.Block() // the queue holds only continuations now
				c.Compute(5)
			case 1:
				c.Store(w, 1)
				if ref {
					refCompute(c, 2000)
				} else {
					c.Compute(2000)
				}
				c.Store(w, 0)
				c.Wake(sleeper, c.Now())
			case 2:
				if ref {
					refCompute(c, 900)
				} else {
					c.Compute(900)
				}
			case 3:
				c.Compute(20)
				var ok bool
				if ref {
					ok = refSpinWhileSet(c, w, 170, 600)
				} else {
					ok = c.SpinWhileSet(w, 170, 600)
				}
				if ok {
					r.won[3]++
				}
			}
		})
		r.counts = m.SchedCounts()
		return r
	}
	want, got := run(true), run(false)
	compareContRuns(t, got, want)
	if got.counts.InlineSteps == 0 {
		t.Fatal("no continuation was stepped inline")
	}
}

// goid returns the calling goroutine's id. Every carrier is its own
// goroutine, so it tells which carrier executes a charge.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	f := bytes.Fields(buf)
	return string(f[1])
}

// TestStallInsideInlineStep pins the StallError raised when a proxied step
// crosses the MaxCycles budget, or the StallCycles watchdog, while another
// context holds the carrier: once in a spinner's gap and once in a Compute
// remainder. t0 takes the lock word and then computes in 50-cycle events, t1
// spins on the word with 1000-cycle gaps (or runs one huge Compute), t2 is
// blocked. The pinned errors were captured from the per-quantum loops before
// the continuations existed; the reference loops must still produce them,
// the crossing charge must run on t0's carrier, and the region must drain
// with no carrier left behind.
func TestStallInsideInlineStep(t *testing.T) {
	th := func(t0, t1 uint64) []ThreadState {
		return []ThreadState{
			{ID: 0, Core: 0, State: "runnable", Clock: t0},
			{ID: 1, Core: 1, State: "runnable", Clock: t1},
			{ID: 2, Core: 2, State: "blocked", Clock: 7},
		}
	}
	cases := []struct {
		name     string
		gap      bool
		watchdog bool
		want     StallError
	}{
		{"gap/budget", true, false, StallError{Kind: StallCycleBudget, LastRunning: 1, Limit: 20_000, Threads: th(19943, 20087)}},
		{"gap/watchdog", true, true, StallError{Kind: StallLivelock, LastRunning: 1, Limit: 20_100, Threads: th(20093, 20247)}},
		{"remainder/budget", false, false, StallError{Kind: StallCycleBudget, LastRunning: 1, Limit: 20_000, Threads: th(19843, 20000)}},
		{"remainder/watchdog", false, true, StallError{Kind: StallLivelock, LastRunning: 1, Limit: 20_100, Threads: th(20043, 20160)}},
	}
	for _, tc := range cases {
		for _, ref := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/ref=%v", tc.name, ref), func(t *testing.T) {
				before := runtime.NumGoroutine()
				cfg := contConfig(8)
				if tc.watchdog {
					cfg.StallCycles = 20_100
				} else {
					cfg.MaxCycles = 20_000
				}
				m := New(cfg)
				w := m.Mem.AllocLine(8)
				var spinnerG, lastG string
				var lastCyc uint64
				m.TickHook = func(c *Context, cyc uint64) uint64 {
					if c.id == 1 {
						lastG, lastCyc = goid(), cyc
					}
					return 0
				}
				_, err := m.RunE(3, func(c *Context) {
					switch c.id {
					case 0:
						c.SpinCAS(w, 19, 6, 600)
						c.Progress()
						for {
							c.Compute(50)
						}
					case 1:
						spinnerG = goid()
						switch {
						case tc.gap && ref:
							refSpinCAS(c, w, 19, 1000, 600)
						case tc.gap:
							c.SpinCAS(w, 19, 1000, 600)
						case ref:
							refCompute(c, 1<<40)
						default:
							c.Compute(1 << 40)
						}
					case 2:
						c.Compute(7)
						c.Block()
					}
				})
				var se *StallError
				if !errors.As(err, &se) {
					t.Fatalf("err = %v, want *StallError", err)
				}
				if fmt.Sprintf("%+v", *se) != fmt.Sprintf("%+v", tc.want) {
					t.Fatalf("stall\n got %+v\nwant %+v", *se, tc.want)
				}
				if lastCyc != computeQuantum {
					t.Fatalf("crossing charge was %d cycles, want a %d-cycle gap/remainder quantum", lastCyc, computeQuantum)
				}
				if !ref && lastG == spinnerG {
					t.Fatal("the crossing charge ran on t1's own carrier, not inline on t0's")
				}
				for _, c := range m.ctxs {
					if !c.exited || c.parkedIn != nil {
						t.Fatalf("t%d's carrier was not drained", c.id)
					}
				}
				deadline := time.Now().Add(2 * time.Second)
				for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
					runtime.Gosched()
					time.Sleep(time.Millisecond)
				}
				if n := runtime.NumGoroutine(); n > before {
					t.Fatalf("goroutines leaked after the stall: %d > %d", n, before)
				}
			})
		}
	}
}

// TestSchedulingPointInsideStepPanics: under Invariants, a hook that reaches
// a scheduling point from inside a continuation step (here a TickHook that
// wrongly calls Compute on a quantum charge) panics with the "proxy"
// invariant, whether the step runs inline or on the context's own carrier.
func TestSchedulingPointInsideStepPanics(t *testing.T) {
	for _, cyc := range []uint64{1, 1000} { // the one-charge and the multi-quantum Compute
		for _, n := range []int{1, 2} {
			t.Run(fmt.Sprintf("compute%d/n%d", cyc, n), func(t *testing.T) {
				m := New(invariantConfig())
				inHook := false
				m.TickHook = func(c *Context, q uint64) uint64 {
					if q == computeQuantum && !inHook {
						inHook = true
						c.Compute(cyc)
					}
					return 0
				}
				expectInvariant(t, "proxy", func() {
					m.Run(n, func(c *Context) {
						c.Compute(10)
						c.Compute(1000)
					})
				})
			})
		}
	}
	t.Run("block", func(t *testing.T) {
		m := New(invariantConfig())
		m.TickHook = func(c *Context, q uint64) uint64 {
			if q == computeQuantum {
				c.Block()
			}
			return 0
		}
		expectInvariant(t, "proxy", func() {
			m.Run(2, func(c *Context) { c.Compute(1000) })
		})
	})
}

// TestSchedCounts: a lone context batches every event (no switch, no inline
// step); two contexts alternating one-cycle events switch on every
// scheduling point; two long Computes run almost entirely inline.
func TestSchedCounts(t *testing.T) {
	m := New(contConfig(2))
	m.Run(1, func(c *Context) { c.Compute(100_000) })
	if got := m.SchedCounts(); got != (SchedCounts{}) {
		t.Fatalf("lone context: %+v, want no switches or inline steps", got)
	}
	m.Run(2, func(c *Context) {
		for i := 0; i < 100; i++ {
			c.Compute(1)
		}
	})
	if got := m.SchedCounts(); got.Switches < 199 || got.InlineSteps != 0 {
		t.Fatalf("ping-pong: %+v, want ≥199 switches and no inline steps", got)
	}
	before := m.SchedCounts()
	m.Run(2, func(c *Context) { c.Compute(160 * 1000) })
	got := m.SchedCounts()
	sw, in := got.Switches-before.Switches, got.InlineSteps-before.InlineSteps
	if sw > 4 || in < 1990 {
		t.Fatalf("two long Computes: %d switches, %d inline steps", sw, in)
	}
}
