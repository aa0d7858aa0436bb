package core

import (
	"tsxhpc/internal/sim"
	"tsxhpc/internal/tm"
)

// AdaptiveCoarsener implements the runtime-assisted granularity control the
// paper calls for in Section 5.4.3: "a hardware or runtime-assisted
// approach to dynamically adjust transactional coarsening could be
// necessary". Coarser regions amortize begin/commit overhead but grow the
// conflict footprint, so the best granularity shifts with thread count and
// contention (Figure 5's inflection). The coarsener steers each thread's
// granularity with an AIMD rule driven by the hardware's own feedback:
// aborts shrink the batch multiplicatively, clean commits grow it
// additively — no application knowledge required.
type AdaptiveCoarsener struct {
	Sys *tm.System
	// Min and Max bound the granularity (defaults 1 and 32).
	Min, Max int
	// FailStreakFloor, when non-zero, is a robustness guard: after this many
	// consecutive failed-speculation regions the thread's granularity is
	// pinned to Min until a region commits cleanly again. Halving alone
	// converges to Min anyway, but under sustained disturbance (fault
	// injection, interrupt storms) the additive increase after each lucky
	// commit keeps re-inflating the batch and re-feeding the abort storm;
	// the floor breaks that oscillation. Zero (the default) disables the
	// guard and preserves the paper's plain AIMD behavior.
	FailStreakFloor int

	gran   [64]int // per-thread current granularity (threads never share)
	streak [64]int // per-thread consecutive failed-speculation regions

	// AIMD transition counts: additive grows, multiplicative shrinks, and
	// FailStreakFloor pins. With probes armed they are named under
	// adaptive/ in the machine's probe set.
	Grows, Shrinks, FloorPins uint64
}

// NewAdaptiveCoarsener creates a coarsener over the TSX system sys.
func NewAdaptiveCoarsener(sys *tm.System) *AdaptiveCoarsener {
	a := &AdaptiveCoarsener{Sys: sys, Min: 1, Max: 32}
	if ps := sys.M.ProbeSet(); ps != nil {
		ps.Bind("adaptive/grow", &a.Grows)
		ps.Bind("adaptive/shrink", &a.Shrinks)
		ps.Bind("adaptive/floor-pin", &a.FloorPins)
	}
	return a
}

// granFor returns (and lazily initializes) the calling thread's granularity.
func (a *AdaptiveCoarsener) granFor(id int) int {
	if a.gran[id] == 0 {
		a.gran[id] = a.Min
	}
	return a.gran[id]
}

// Gran reports thread id's current granularity (for tests and telemetry).
func (a *AdaptiveCoarsener) Gran(id int) int { return a.granFor(id) }

// Do executes items [0,n), batching a dynamically chosen number of
// consecutive items per transactional region, exactly like
// core.DoCoarsened but with the granularity adapting to observed aborts.
func (a *AdaptiveCoarsener) Do(c *sim.Context, n int, item func(tx tm.Tx, i int)) {
	id := c.ID()
	stats := &a.Sys.HTM.Stats
	for start := 0; start < n; {
		gran := a.granFor(id)
		end := start + gran
		if end > n {
			end = n
		}
		// The simulator is sequential, so the abort delta across this
		// Atomic call is attributable to this region (plus any collateral
		// aborts it caused — also a signal that the region is too big).
		abortsBefore := stats.TotalAborts()
		fallbackBefore := stats.Fallback
		lo, hi := start, end
		a.Sys.Atomic(c, func(tx tm.Tx) {
			for i := lo; i < hi; i++ {
				item(tx, i)
			}
		})
		if stats.TotalAborts() != abortsBefore || stats.Fallback != fallbackBefore {
			// Multiplicative decrease on any speculation failure.
			if gran > a.Min {
				a.gran[id] = gran / 2
				if a.gran[id] < a.Min {
					a.gran[id] = a.Min
				}
				a.Shrinks++
			}
			a.streak[id]++
			if a.FailStreakFloor > 0 && a.streak[id] >= a.FailStreakFloor {
				a.gran[id] = a.Min
				a.FloorPins++
			}
		} else {
			// A clean first-try commit ends any failure streak (and with it
			// the FailStreakFloor pin); additive increase resumes.
			a.streak[id] = 0
			if gran < a.Max {
				a.gran[id] = gran + 1
				a.Grows++
			}
		}
		start = end
	}
}
