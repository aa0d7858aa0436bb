package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"time"

	"tsxhpc/internal/core"
	"tsxhpc/internal/experiments"
	"tsxhpc/internal/htm"
	"tsxhpc/internal/memo"
	"tsxhpc/internal/netstack"
	"tsxhpc/internal/runner"
	"tsxhpc/internal/sim"
	"tsxhpc/internal/ssync"
	"tsxhpc/internal/stm"
	"tsxhpc/internal/tm"
)

// probeReps is how many times each layer probe is timed; the median is
// reported.
const probeReps = 5

// layerProbes times each layer's primitive on its own through the layer's
// public functions, at the catalog's real sizes, and returns ns per
// operation by metric name (plus memo.entry_bytes).
func layerProbes() (map[string]float64, error) {
	out := map[string]float64{}
	for _, n := range []int{8, 16, 128} {
		out[fmt.Sprintf("sched.handoff_ns.n%d", n)] = timeOp(func() (time.Duration, uint64) { return handoffs(n, 400_000/n) })
	}
	out["sched.batch_ns"] = timeOp(func() (time.Duration, uint64) { return handoffs(1, 2_000_000) })
	out["cache.l1_hit_ns"] = timeOp(l1Hits)
	out["cache.l1_miss_ns"] = timeOp(l1Misses)
	out["cache.transfer_ns"] = timeOp(transfers)
	out["htm.commit_ns"] = timeOp(func() (time.Duration, uint64) {
		return onOneContext(200_000, func(m *sim.Machine) func(*sim.Context, int) {
			r, a := htm.New(m), m.Mem.AllocLine(8)
			return func(c *sim.Context, i int) {
				tx := r.Begin(c)
				tx.Store(a, uint64(i))
				tx.Commit()
			}
		})
	})
	out["stm.commit_ns"] = timeOp(func() (time.Duration, uint64) {
		return onOneContext(100_000, func(m *sim.Machine) func(*sim.Context, int) {
			s, a := stm.New(m), m.Mem.AllocLine(8)
			return func(c *sim.Context, _ int) { s.Run(c, func(tx *stm.Txn) { tx.Store(a, tx.Load(a)+1) }) }
		})
	})
	for _, mode := range []tm.Mode{tm.TSX, tm.TL2} {
		out["tm.atomic_ns."+mode.String()] = timeOp(func() (time.Duration, uint64) {
			return onOneContext(100_000, func(m *sim.Machine) func(*sim.Context, int) {
				sys, a := tm.NewSystem(m, mode), m.Mem.AllocLine(8)
				return func(c *sim.Context, _ int) { sys.Atomic(c, func(tx tm.Tx) { tx.Store(a, tx.Load(a)+1) }) }
			})
		})
	}
	out["ssync.mutex_ns"] = timeOp(func() (time.Duration, uint64) {
		return onOneContext(200_000, func(m *sim.Machine) func(*sim.Context, int) {
			mu := ssync.NewMutex(m.Mem)
			return func(c *sim.Context, _ int) {
				mu.Lock(c)
				mu.Unlock(c)
			}
		})
	})
	out["net.msg_ns"] = timeOp(func() (time.Duration, uint64) {
		return onOneContext(100_000, func(m *sim.Machine) func(*sim.Context, int) {
			ep := netstack.New(m, core.ModeMutex).NewConn(64).C2S
			return func(c *sim.Context, i int) {
				ep.Send(c, 64, uint64(i))
				ep.Recv(c)
			}
		})
	})
	save, load, size, err := memoProbe()
	if err != nil {
		return nil, err
	}
	out["memo.save_ns"], out["memo.load_ns"], out["memo.entry_bytes"] = save, load, size
	return out, nil
}

// timeOp runs op probeReps times and returns the median ns per operation.
func timeOp(op func() (time.Duration, uint64)) float64 {
	ns := make([]float64, probeReps)
	for i := range ns {
		d, ops := op()
		ns[i] = float64(d.Nanoseconds()) / float64(ops)
	}
	return median(ns)
}

// probeConfig is the paper machine with the topology widened to carry n
// contexts. Spelled out rather than taken from sim.DefaultConfig so that
// process-wide run defaults cannot reach the probes.
func probeConfig(n int) sim.Config {
	cfg := sim.Config{Sockets: 1, Cores: 4, ThreadsPerCore: 2, Costs: sim.DefaultCosts(), Seed: 1}
	switch {
	case n <= 8:
	case n <= 16:
		cfg.Cores = 8
	default:
		cfg.Sockets, cfg.Cores, cfg.ThreadsPerCore = 4, 8, 4
	}
	return cfg
}

// handoffs runs n contexts each looping Compute(1): with more than one
// context every event hands the core to the next context (the run queue's
// replace-top plus a coroutine switch); with one, every event takes the
// same-context batch path. Returns elapsed time and events.
func handoffs(n, per int) (time.Duration, uint64) {
	m := sim.New(probeConfig(n))
	t0 := time.Now()
	res := m.Run(n, func(c *sim.Context) {
		for i := 0; i < per; i++ {
			c.Compute(1)
		}
	})
	return time.Since(t0), res.Events
}

// onOneContext times ops calls of the body build returns, on one context of
// a fresh paper machine.
func onOneContext(ops int, build func(*sim.Machine) func(*sim.Context, int)) (time.Duration, uint64) {
	m := sim.New(probeConfig(1))
	body := build(m)
	var d time.Duration
	m.Run(1, func(c *sim.Context) {
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			body(c, i)
		}
		d = time.Since(t0)
	})
	return d, uint64(ops)
}

// l1Hits loads from 32 lines that stay resident in L1.
func l1Hits() (time.Duration, uint64) {
	const ops = 1_000_000
	return onOneContext(ops, func(m *sim.Machine) func(*sim.Context, int) {
		arr := m.Mem.AllocLine(32 * sim.LineSize)
		return func(c *sim.Context, i int) { c.Load(arr + sim.Addr(i%32)*sim.LineSize) }
	})
}

// l1Misses strides one load per line over 4 MiB, far past L1 capacity, so
// every load misses.
func l1Misses() (time.Duration, uint64) {
	const span = 4 << 20
	return onOneContext(200_000, func(m *sim.Machine) func(*sim.Context, int) {
		arr := m.Mem.AllocLine(span)
		return func(c *sim.Context, i int) { c.Load(arr + sim.Addr(i*sim.LineSize%span)) }
	})
}

// transfers has two contexts on different cores store to one shared line in
// turn, so every store moves the line between their L1s. The time includes
// the handoff between the two contexts.
func transfers() (time.Duration, uint64) {
	const per = 100_000
	m := sim.New(probeConfig(8))
	a := m.Mem.AllocLine(8)
	t0 := time.Now()
	m.Run(2, func(c *sim.Context) {
		for i := 0; i < per; i++ {
			c.Store(a, uint64(i))
		}
	})
	return time.Since(t0), 2 * per
}

// capture is a runner.Store that records every result the engine saves.
type capture struct {
	mu   sync.Mutex
	keys []runner.Key
	vals []any
}

func (c *capture) Load(runner.Key, any) runner.LoadStatus { return runner.StoreMiss }

func (c *capture) Save(k runner.Key, v any) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.keys, c.vals = append(c.keys, k), append(c.vals, v)
	return nil
}

// memoProbe saves and loads real cell results (those of sections A3 and A7)
// through memo.Store, and returns ns per Save, ns per Load, and the mean
// entry size in bytes.
func memoProbe() (save, load, size float64, err error) {
	suite := experiments.NewSuite(1)
	var rec capture
	suite.E.SetStore(&rec)
	for _, s := range sectionsByAlias("A3", "A7") {
		if _, _, err := s.run(suite); err != nil {
			return 0, 0, 0, err
		}
	}
	dir, err := os.MkdirTemp(stateDir, "memo-probe-")
	if err != nil {
		return 0, 0, 0, err
	}
	defer os.RemoveAll(dir)
	n := uint64(len(rec.keys))
	var saves, loads []float64
	for rep := 0; rep < probeReps; rep++ {
		st, err := memo.Open(filepath.Join(dir, fmt.Sprint(rep)))
		if err != nil {
			return 0, 0, 0, err
		}
		t0 := time.Now()
		for i, k := range rec.keys {
			if err := st.Save(k, rec.vals[i]); err != nil {
				return 0, 0, 0, err
			}
		}
		saves = append(saves, float64(time.Since(t0).Nanoseconds())/float64(n))
		t0 = time.Now()
		for i, k := range rec.keys {
			out := reflect.New(reflect.TypeOf(rec.vals[i])).Interface()
			if got := st.Load(k, out); got != runner.StoreHit {
				return 0, 0, 0, fmt.Errorf("memo probe: %s did not load back (status %d)", k, got)
			}
		}
		loads = append(loads, float64(time.Since(t0).Nanoseconds())/float64(n))
		if rep == 0 {
			bytes, err := dirBytes(st.Dir())
			if err != nil {
				return 0, 0, 0, err
			}
			size = float64(bytes) / float64(n)
		}
	}
	return median(saves), median(loads), size, nil
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return err
	})
	return total, err
}
