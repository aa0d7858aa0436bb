package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestRunQueueMatchesArgmin drives the tournament-tree run queue through
// random insert / remove-min / handoff / insert-after-clock-jump sequences
// and checks it against a brute-force argmin over the same key set after
// every step: qtopKey must equal the reference minimum (MaxUint64 when
// empty), every popped context must be the reference argmin, and every
// internal node must hold the min of its children. Sizes cover one leaf,
// non-powers of two (padding leaves that never hold a key) and the full
// 1024-id capacity of the packed key.
func TestRunQueueMatchesArgmin(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 9, 16, 100, 128, 1000, 1024} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(n)))
			m := New(benchConfig(1, 1))
			m.ctxs = make([]*Context, n)
			for i := range m.ctxs {
				m.ctxs[i] = &Context{m: m, id: i}
			}
			// Reuse the tree from a wider region first, so sizing down
			// must clear stale leaves.
			m.resetRunq(1024)
			m.tour[len(m.tour)-1] = 0
			m.resetRunq(n)

			queued := make([]bool, n) // reference: which ids are runnable
			clock := make([]uint64, n)
			check := func(step int, op string) {
				t.Helper()
				want := ^uint64(0)
				for id, q := range queued {
					if k := m.ctxs[id].key; q && k < want {
						want = k
					}
				}
				if m.qtopKey != want {
					t.Fatalf("step %d (%s): qtopKey %#x, reference min %#x", step, op, m.qtopKey, want)
				}
				for i := 1; i < len(m.tour)>>1; i++ {
					if m.tour[i] != min(m.tour[2*i], m.tour[2*i+1]) {
						t.Fatalf("step %d (%s): node %d holds %#x, children %#x %#x",
							step, op, i, m.tour[i], m.tour[2*i], m.tour[2*i+1])
					}
				}
			}
			pop := func(step int, op string) *Context {
				t.Helper()
				want := -1
				for id, q := range queued {
					if q && (want < 0 || m.ctxs[id].key < m.ctxs[want].key) {
						want = id
					}
				}
				c := m.popMin()
				if c.id != want {
					t.Fatalf("step %d (%s): popped t%d, reference argmin t%d", step, op, c.id, want)
				}
				queued[c.id] = false
				return c
			}
			// insert enqueues id at virtual time clk (clocks never go back).
			insert := func(id int, clk uint64) {
				clock[id] = max(clock[id], clk)
				m.ctxs[id].key = clock[id]<<keyIDBits | uint64(id)
				queued[id] = true
				m.qpush(m.ctxs[id])
			}
			idle := func() int { // a random id not in the queue, or -1
				start := rng.Intn(n)
				for j := 0; j < n; j++ {
					if id := (start + j) % n; !queued[id] {
						return id
					}
				}
				return -1
			}

			// Jumps stop short of the 2^54-cycle clock bound by more than
			// the small steps can add up to.
			const clockCap = 1<<(64-keyIDBits) - 1<<24
			check(0, "empty")
			for id := 0; id < n; id++ {
				insert(id, 0) // a region starts with every context at clock 0
			}
			check(0, "fill")
			steps := 4000
			if n > 128 {
				steps = 1500
			}
			for step := 1; step <= steps; step++ {
				switch op := rng.Intn(10); {
				case op < 3: // Wake: a blocked context re-enters
					if id := idle(); id >= 0 {
						insert(id, clock[id]+uint64(rng.Intn(50)))
						check(step, "insert")
					}
				case op < 5: // Block or finish: the minimum leaves
					if m.qtopKey != ^uint64(0) {
						pop(step, "remove-min")
						check(step, "remove-min")
					}
				case op < 9: // maybeYield: remove the minimum, re-insert self
					if self := idle(); self >= 0 && m.qtopKey != ^uint64(0) {
						next := pop(step, "handoff")
						insert(self, max(clock[self], clock[next.id])+uint64(rng.Intn(8)))
						check(step, "handoff")
					}
				default: // a far clock jump, staying inside the packed key's clock range
					if id := idle(); id >= 0 && clock[id] < clockCap {
						insert(id, clock[id]+uint64(rng.Int63n(int64(clockCap-clock[id]))))
						check(step, "clock-jump")
					}
				}
			}
			for m.qtopKey != ^uint64(0) { // drain to the empty sentinel
				pop(steps+1, "drain")
			}
			check(steps+1, "drained")
		})
	}
}
