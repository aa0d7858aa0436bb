package sim

import "fmt"

// Inline continuations. Most handoffs in a contended run switch into a
// context that has nothing to do on its own stack before its next scheduling
// point: it is charging the next quantum of a long Compute, or it is one
// iteration further into a bounded spin on a lock word. Both continuations
// are plain data — a cycle count, or an address plus a few counters — so the
// scheduler runs them itself. When the dispatch path pops a context whose
// continuation is data, it calls that context's step on the current carrier
// (charging the context's clock, touching its L1, running its hooks) and
// puts the context back in the run queue, exactly as the context's own
// maybeYield would have after the same step. It pops again until it finds a
// context that needs its stack. The context's own carrier, when it does run,
// calls the same step function in the same loop (runCont), so which carrier
// executes a step never changes what the step does or when: every charge,
// L1 transition, hook call and scheduling decision happens at the same
// (clock, id) point as before.
//
// A step must not reach a scheduling point. The hooks it calls (TickHook,
// EvictHook, ConflictHook and, through fault injection, SpuriousAbortHook)
// only update data; under Config.Invariants a hook that yields, blocks or
// computes from inside a step panics with an *InvariantError at Point
// "proxy".

// contStage is where a context's data continuation stands.
type contStage uint8

const (
	// contNone: the body's next step needs its own stack.
	contNone contStage = iota
	// contCompute: a multi-quantum Compute is charging Context.left.
	contCompute
	// contSpinPre: the next spin attempt starts with its private work (pre
	// cycles); SpinCAS only.
	contSpinPre
	// contSpinAccess: the next step is the attempt's timed access.
	contSpinAccess
	// contSpinTest: the access was charged; the next step delivers its
	// conflict hook, applies its memory effect and tests the word.
	contSpinTest
)

// spinState is a bounded spin-wait on one word, in data form.
type spinState struct {
	addr Addr
	// pre is charged before each SpinCAS attempt; gap after each failed
	// attempt of either kind, at most limit times (n counts them).
	pre, gap uint64
	n, limit int
	// cas selects SpinCAS (a 0→1 RMW per attempt) over SpinWhileSet (a
	// load per attempt); ok is the outcome once the spin has ended.
	cas, ok bool
}

// SpinCAS makes up to limit+1 attempts at a 0→1 compare-and-swap of the word
// at a, with gap cycles between consecutive attempts, and reports whether
// one succeeded. Each attempt is pre cycles of private work, then one timed
// atomic read-modify-write access. It charges and schedules exactly like
//
//	for n := 0; ; n++ {
//		c.Compute(pre)
//		if old, _ := c.RMW(a, set1IfZero); old == 0 {
//			return true
//		}
//		if n >= limit {
//			return false
//		}
//		c.Compute(gap)
//	}
//
// but runs as a data continuation (see above).
func (c *Context) SpinCAS(a Addr, pre, gap uint64, limit int) bool {
	c.spin = spinState{addr: a, pre: pre, gap: gap, limit: limit, cas: true}
	c.cont = contSpinPre
	c.runCont()
	return c.spin.ok
}

// SpinWhileSet polls the word at a with up to limit+1 timed loads, gap
// cycles apart, until one reads 0, and reports whether one did. It charges
// and schedules exactly like
//
//	for n := 0; c.Load(a) != 0; n++ {
//		if n >= limit {
//			return false
//		}
//		c.Compute(gap)
//	}
//	return true
//
// but runs as a data continuation (see above).
func (c *Context) SpinWhileSet(a Addr, gap uint64, limit int) bool {
	c.spin = spinState{addr: a, gap: gap, limit: limit}
	c.cont = contSpinAccess
	c.runCont()
	return c.spin.ok
}

// runCont runs c's data continuation on c's own carrier, one step per
// scheduling point, until it ends. While c waits in the run queue other
// carriers may run its steps; the loop then resumes wherever they left it.
func (c *Context) runCont() {
	for c.cont != contNone {
		if c.step() {
			return
		}
		c.maybeYield()
	}
}

// next removes and returns the run queue's minimum after stepping any data
// continuations at its head (see runInline). The caller must ensure the
// queue is nonempty.
func (m *Machine) next() *Context {
	if n := m.ctxs[m.qtopKey&keyIDMask]; n.cont == contNone {
		return m.popMin()
	}
	return m.runInline()
}

// runInline is the dispatch loop. While the queue minimum has a data
// continuation, step it on the current carrier and re-key its leaf in place,
// leaving the queue exactly as the context's own maybeYield would have left
// it after the same step. It returns, removed from the queue, the first
// minimum that needs its stack: one with no continuation left, or one whose
// spin just ended (its body continues at this instant). That may be the
// yielding context itself, which then simply goes on running.
func (m *Machine) runInline() *Context {
	for {
		n := m.ctxs[m.qtopKey&keyIDMask]
		if n.cont == contNone {
			return m.popMin()
		}
		m.inlineSteps++
		if n.step() {
			m.qset(n.id, ^uint64(0))
			return n
		}
		m.qset(n.id, n.key)
	}
}

// step advances c's continuation to its next scheduling point, or ends a
// spin and reports true, in which case c's body continues at once.
//
// Under Config.Invariants every scheduling point the step reaches is forced
// through maybeYield's slow path (qtopKey 0), where stepping makes it panic;
// qtopKey always mirrors the tree root, so it is restored from there.
func (c *Context) step() (ended bool) {
	m := c.m
	if m.Cfg.Invariants {
		if m.stepping {
			m.stepViolation(c) // a hook started a Compute or spin
		}
		m.stepping = true
		m.qtopKey = 0
		defer func() {
			m.stepping = false
			m.qtopKey = m.tour[1]
		}()
	}
	if c.left != 0 {
		q := min(c.left, computeQuantum)
		c.left -= q
		if c.left == 0 && c.cont == contCompute {
			c.cont = contNone
		}
		c.charge(q)
		return false
	}
	s := &c.spin
	switch c.cont {
	case contSpinPre:
		c.cont = contSpinAccess
		c.computeStep(s.pre)
	case contSpinAccess:
		line := LineOf(s.addr)
		if m.Cfg.Invariants {
			c.pendingLine = line // see Context.access
		}
		c.cont = contSpinTest
		c.charge(c.cache.access(c, line, s.cas, false))
	case contSpinTest:
		if h := m.ConflictHook; h != nil {
			h(c, LineOf(s.addr), s.cas)
		}
		if m.Cfg.Invariants {
			c.pendingLine = 0
		}
		if m.Mem.read(s.addr) == 0 {
			if s.cas {
				m.Mem.write(s.addr, 1)
			}
			s.ok = true
			c.cont = contNone
			return true
		}
		if s.n >= s.limit {
			c.cont = contNone
			return true
		}
		s.n++
		c.cont = contSpinAccess
		if s.cas {
			c.cont = contSpinPre
		}
		c.computeStep(s.gap)
	default:
		panic(fmt.Sprintf("sim: t%d stepped with no data continuation", c.id))
	}
	return false
}

// computeStep charges the first quantum of a cyc-cycle Compute and leaves
// the rest in c.left for the following steps.
func (c *Context) computeStep(cyc uint64) {
	q := min(cyc, computeQuantum)
	c.left = cyc - q
	c.charge(q)
}

// stepViolation reports a scheduling point reached from inside a step.
func (m *Machine) stepViolation(c *Context) {
	panic(&InvariantError{Point: "proxy", Thread: c.id, Clock: c.clock,
		Detail: "scheduling point reached inside an inline continuation step (a hook yielded, blocked or computed)"})
}

// SchedCounts reports how the machine's handoffs were served since New.
type SchedCounts struct {
	// Switches counts real stack switches from one carrier to another.
	Switches uint64
	// InlineSteps counts continuation steps the dispatch loop ran on the
	// current carrier in place of a switch.
	InlineSteps uint64
}

// SchedCounts returns the machine's cumulative switch and inline-step
// counts. The same-context batching fast path increments neither.
func (m *Machine) SchedCounts() SchedCounts {
	return SchedCounts{Switches: m.switches, InlineSteps: m.inlineSteps}
}
