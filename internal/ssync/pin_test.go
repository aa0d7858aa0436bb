package ssync

import (
	"fmt"
	"hash/fnv"
	"testing"

	"tsxhpc/internal/sim"
)

// Exact-result pins for Block/Wake/spin-heavy regions. The rendered tables
// round to 0.1× or whole percent, so a scheduler change that reorders two
// handoffs can slip past them; these pin the full sim.Result (makespan,
// every thread's finishing clock, event count) at run-queue depths of 8, 32
// and 128. Any exact min-structure for the run queue must reproduce them
// bit for bit, because packed scheduling keys are unique.

// pinConfig spells out a machine with n hardware threads: the paper
// machine at 8, then 8-core sockets with 2 HyperThreads each. It avoids
// DefaultConfig so process-wide RunDefaults cannot leak into the pins.
func pinConfig(n int) sim.Config {
	cfg := sim.Config{Sockets: 1, Cores: 4, ThreadsPerCore: 2, Costs: sim.DefaultCosts(), Seed: 1}
	if n > 8 {
		cfg.Sockets, cfg.Cores = n/16, 8
	}
	return cfg
}

// pin is a compact exact fingerprint of a sim.Result: the makespan and
// event count verbatim plus an FNV-1a digest over every per-thread clock.
type pin struct {
	cycles, events, clocks uint64
}

func pinOf(r sim.Result) pin {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range r.PerThread {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	return pin{cycles: r.Cycles, events: r.Events, clocks: h.Sum64()}
}

// mutexConvoy: every thread hammers one Mutex with a short critical
// section, so waiters exhaust their spin budget and park in a FIFO convoy
// that Unlock drains one futex handoff at a time. Spinners make the cost
// grow with n², so wider regions run fewer rounds.
func mutexConvoy(n int) sim.Result {
	m := sim.New(pinConfig(n))
	l := NewMutex(m.Mem)
	a := m.Mem.AllocLine(8)
	rounds := max(3, 320/n)
	return m.Run(n, func(c *sim.Context) {
		for i := 0; i < rounds; i++ {
			l.Lock(c)
			c.Store(a, c.Load(a)+1)
			c.Compute(uint64(20 + c.ID()%5))
			l.Unlock(c)
			c.Compute(uint64(5 + c.ID()%3))
		}
	})
}

// barrierLoop: rounds of uneven private work separated by a centralized
// barrier, so every round parks all but the last arriver and wakes them
// together.
func barrierLoop(n int) sim.Result {
	m := sim.New(pinConfig(n))
	b := NewBarrier(m.Mem, n)
	return m.Run(n, func(c *sim.Context) {
		for r := 0; r < 25; r++ {
			c.Compute(uint64(50 + (c.ID()*7+r*3)%40))
			b.Arrive(c)
		}
	})
}

// condPingPong: threads pair up (2k, 2k+1) over one Mutex and Cond per
// pair and alternate turns, so every turn is a Signal/Wait futex round trip.
func condPingPong(n int) sim.Result {
	m := sim.New(pinConfig(n))
	type pair struct {
		l    *Mutex
		cv   *Cond
		turn sim.Addr
	}
	ps := make([]pair, n/2)
	for i := range ps {
		ps[i] = pair{NewMutex(m.Mem), NewCond(), m.Mem.AllocLine(8)}
	}
	return m.Run(n, func(c *sim.Context) {
		p, me := ps[c.ID()/2], uint64(c.ID()%2)
		for r := 0; r < 30; r++ {
			p.l.Lock(c)
			for c.Load(p.turn) != me {
				p.cv.Wait(c, p.l)
			}
			c.Compute(uint64(10 + c.ID()%4))
			c.Store(p.turn, 1-me)
			p.cv.Signal(c)
			p.l.Unlock(c)
		}
	})
}

func TestExactResultPins(t *testing.T) {
	regions := []struct {
		name string
		run  func(int) sim.Result
		want map[int]pin
	}{
		{"mutex-convoy", mutexConvoy, map[int]pin{
			8:   {88921, 17664, 0xd76f7cb28dc4b06e},
			32:  {157814, 69108, 0x6529c73477fa4f8},
			128: {588249, 357333, 0x740139c5596ca716},
		}},
		{"barrier-loop", barrierLoop, map[int]pin{
			8:   {86975, 1750, 0x6d8d986b285f6c0b},
			32:  {91752, 7150, 0x217f0283de32c26f},
			128: {90675, 28750, 0xd670309971f8225b},
		}},
		{"cond-ping-pong", condPingPong, map[int]pin{
			8:   {95855, 26928, 0x63000d6b7ac9228d},
			32:  {251126, 64080, 0xd5d402e72182c5cd},
			128: {251241, 124272, 0x7eeeb55b8d734e8d},
		}},
	}
	for _, r := range regions {
		for _, n := range []int{8, 32, 128} {
			t.Run(fmt.Sprintf("%s/%d", r.name, n), func(t *testing.T) {
				res := r.run(n)
				if got := pinOf(res); got != r.want[n] {
					t.Errorf("got {%d, %d, %#x}, want {%d, %d, %#x}; per-thread clocks %v",
						got.cycles, got.events, got.clocks,
						r.want[n].cycles, r.want[n].events, r.want[n].clocks, res.PerThread)
				}
			})
		}
	}
}
