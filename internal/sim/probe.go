package sim

// Probe integration: the simulator owns the virtual-time phase profiler
// (every charged cycle is attributed to the charging thread's current phase)
// and hands engines a per-machine probe.Set, to which they bind their Stats
// fields, and a trace ring. Everything here is nil-guarded no-ops when the
// machine was built without Metrics/TraceEvents, so the probes-off hot path
// pays exactly one pointer test in charge.

import (
	"fmt"

	"tsxhpc/internal/probe"
)

// Phase classifies where a simulated thread's cycles go, the paper's
// Section 6 decomposition: useful transactional work, aborted (wasted)
// transactional work, serial fallback execution, spin/backoff, and blocking
// waits. Engines set the phase around their regions; charge attributes every
// cycle to the thread's current phase.
type Phase uint8

const (
	// PhaseOther is everything not otherwise classified (workload-private
	// computation outside critical sections, setup).
	PhaseOther Phase = iota
	// PhaseTxn is speculative execution inside a hardware or software
	// transaction that has not (yet) aborted.
	PhaseTxn
	// PhaseWasted is transactional work retroactively discarded by an abort;
	// cycles move here from PhaseTxn when the abort is processed.
	PhaseWasted
	// PhaseSerial is execution under the fallback lock (or the single global
	// lock), where the paper's lemming effect serializes threads.
	PhaseSerial
	// PhaseSpin is busy-waiting: abort backoff, lock-busy wait spins,
	// spinlock acquisition.
	PhaseSpin
	// PhaseWait is blocked time: futex parks, condition waits, barrier
	// arrivals.
	PhaseWait

	// NumPhases is the number of phase classes.
	NumPhases = int(PhaseWait) + 1
)

var phaseNames = [NumPhases]string{"other", "txn", "wasted", "serial", "spin", "wait"}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// probes is a machine's observability state, allocated only when the config
// armed Metrics or TraceEvents. The phase/cycles planes are indexed by
// thread id (bounded by the packed scheduling key's id field, so the arrays
// are small and fixed).
type probes struct {
	set    *probe.Set
	trace  *probe.Trace
	engine string
	phase  [1 << keyIDBits]Phase
	cycles [1 << keyIDBits][NumPhases]uint64
}

// armProbes initializes the machine's probe state per the config; called
// from New.
func (m *Machine) armProbes() {
	cfg := &m.Cfg
	if !cfg.Metrics && cfg.TraceEvents <= 0 {
		return
	}
	label := cfg.Label
	if label == "" {
		label = "sim"
	}
	m.probes = &probes{set: probe.NewSet(), engine: "sim"}
	if cfg.Metrics {
		probe.AttachSource(m.ProbeSnapshot)
	}
	if cfg.TraceEvents > 0 {
		m.probes.trace = probe.AttachTrace(label, cfg.TraceEvents)
	}
}

// ProbeSet returns the machine's probe set, or nil when probes are off.
// Engines bind their Stats fields and resolve histogram handles from it at
// construction time, and hold nil histogram handles when it is nil.
func (m *Machine) ProbeSet() *probe.Set {
	if m.probes == nil {
		return nil
	}
	return m.probes.set
}

// TraceRing returns the machine's bounded span buffer, or nil when tracing
// is off.
func (m *Machine) TraceRing() *probe.Trace {
	if m.probes == nil {
		return nil
	}
	return m.probes.trace
}

// SetProbeEngine names the engine this machine's virtual-time phases are
// reported under ("tsx", "tl2", "sgl", ...); package tm calls it when a
// System is built on the machine. No-op when probes are off.
func (m *Machine) SetProbeEngine(name string) {
	if m.probes != nil && name != "" {
		m.probes.engine = name
	}
}

// SetPhase switches the calling thread's cycle-attribution phase and returns
// the previous one, so callers can restore it (phases nest: a fallback
// acquisition spins, then holds). Returns PhaseOther when probes are off —
// the restore then re-installs PhaseOther into a no-op, keeping engine code
// branch-free.
func (c *Context) SetPhase(p Phase) Phase {
	pr := c.m.probes
	if pr == nil {
		return PhaseOther
	}
	prev := pr.phase[c.id]
	pr.phase[c.id] = p
	return prev
}

// PhaseCycles returns the cycles this thread has accumulated in phase p so
// far (0 when probes are off). Engines snapshot it at transaction begin to
// measure the attempt's own cycles at abort time.
func (c *Context) PhaseCycles(p Phase) uint64 {
	pr := c.m.probes
	if pr == nil {
		return 0
	}
	return pr.cycles[c.id][p]
}

// ReclassifyCycles moves cyc already-attributed cycles of this thread from
// one phase to another — how an abort turns PhaseTxn work into PhaseWasted
// retroactively. No-op when probes are off.
func (c *Context) ReclassifyCycles(from, to Phase, cyc uint64) {
	pr := c.m.probes
	if pr == nil {
		return
	}
	pr.cycles[c.id][from] -= cyc
	pr.cycles[c.id][to] += cyc
}

// EmitSpan records one completed interval on this thread's trace track
// (no-op without a trace ring). cat and name must be precomputed constants:
// the call sits on abort/commit paths.
func (c *Context) EmitSpan(ts, dur uint64, cat, name string) {
	pr := c.m.probes
	if pr == nil || pr.trace == nil {
		return
	}
	pr.trace.Emit(c.id, ts, dur, cat, name)
}

// ResetProbes zeroes the machine's histograms, every engine Stats field
// bound in its probe set, and the virtual-time planes (bindings and handles
// stay valid), so measurement can start after workload setup. The bound
// fields are the engines' own counts, so this also clears what their
// Stats.Reset would; the L1 counters are cumulative per cache and are not
// reset. No-op when probes are off.
func (m *Machine) ResetProbes() {
	if pr := m.probes; pr != nil {
		pr.set.Reset()
		pr.cycles = [1 << keyIDBits][NumPhases]uint64{}
	}
}

// ProbeSnapshot captures everything this machine observed: the engines'
// counters/histograms, the virtual-time phase totals (per engine and per
// thread), and the L1 event counts. The result is name-sorted and a pure
// function of the simulated schedule, so merged reports are deterministic at
// any host parallelism.
func (m *Machine) ProbeSnapshot() probe.Snapshot {
	pr := m.probes
	if pr == nil {
		return probe.Snapshot{}
	}
	var derived probe.Snapshot
	for p := 0; p < NumPhases; p++ {
		var total uint64
		for id := 0; id < m.MaxThreads() && id < len(pr.cycles); id++ {
			cyc := pr.cycles[id][p]
			total += cyc
			if cyc != 0 {
				derived.AddCounter(fmt.Sprintf("vt/%s/t%d/%s", pr.engine, id, Phase(p)), cyc)
			}
		}
		derived.AddCounter(fmt.Sprintf("vt/%s/%s", pr.engine, Phase(p)), total)
	}
	cs := m.CacheStats()
	derived.AddCounter("l1/hits", cs.Hits)
	derived.AddCounter("l1/misses", cs.Misses)
	derived.AddCounter("l1/transfers", cs.Transfers)
	derived.AddCounter("l1/evictions", cs.Evictions)
	derived.AddCounter("l1/invalidations", cs.Invalidations)
	if m.nSockets > 1 {
		// Per-socket traffic split, only on NUMA machines so single-socket
		// snapshots (everything the paper reproduces) are unchanged.
		derived.AddCounter("l1/remote-transfers", cs.RemoteTransfers)
		derived.AddCounter("l1/remote-misses", cs.RemoteMisses)
		for _, c := range m.caches {
			derived.AddCounter(fmt.Sprintf("l1/s%d/hits", c.socket), c.stats.Hits)
			derived.AddCounter(fmt.Sprintf("l1/s%d/transfers", c.socket), c.stats.Transfers)
			derived.AddCounter(fmt.Sprintf("l1/s%d/misses", c.socket), c.stats.Misses)
		}
	}
	return probe.Merge(pr.set.Snapshot(), derived)
}
