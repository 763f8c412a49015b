// Package netsim is a deterministic discrete-event network simulator.
//
// It provides the substrate the paper's testbed (Amazon EC2 / OpenNebula)
// is substituted with: virtual time, processes, finite CPU resources,
// links with latency and bandwidth, NAT middleboxes, UDP-style sockets
// and ICMP echo.
//
// The scheduler is run-to-completion: most simulation activity (packet
// delivery, transport pumps, timer fires) executes as direct callbacks on
// the scheduler goroutine, with no context switch. Processes (Proc)
// remain for code that genuinely blocks — client workloads, stream reads.
// Each is a coroutine (iter.Pull): the scheduler hands it control with one
// stack switch and gets it back the same way when it parks, so exactly
// one goroutine (the scheduler or a single process) executes at any
// moment and a process's panic surfaces in the caller of Run. All wakeups
// go through the event queue, with a monotonic sequence number breaking
// ties, so runs are fully deterministic for a fixed RNG seed.
//
// Events live in a hierarchical timer wheel (slot width 2^14 ns ≈ 16.4µs,
// 4096 slots ≈ 67ms horizon) with a binary-heap overflow tier for
// far-future timers (RTO, rekey, housekeeping); see DESIGN.md §5.2.
package netsim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"runtime/debug"
	"time"
)

// VTime is a virtual timestamp: the duration since the simulation epoch.
type VTime = time.Duration

// Event kinds. A typed kind plus payload fields replaces the old
// heap-allocated func() closure on every hot path: Sleep, WaitQueue
// timeouts, WakeOne, packet delivery and re-armable timers schedule
// nothing but a recycled event node.
type evKind uint8

const (
	evFunc    evKind = iota // call fn
	evWake                  // resume parked process p
	evSpawn                 // first resume of process p (body start)
	evTimeout               // WaitQueue timeout for waiter w (gen-guarded)
	evTimer                 // Timer fire for tm (gen-guarded)
	evDeliver               // packet pkt arrives at iface dst
)

// event is a scheduled occurrence. Events with equal time fire in the
// order they were scheduled (seq).
type event struct {
	at   VTime
	seq  uint64
	next *event // slot chain link while parked in the wheel
	kind evKind
	gen  uint64 // generation guard for evTimeout / evTimer
	fn   func()
	p    *Proc
	w    *waiter
	tm   *Timer
	dst  *Iface
	pkt  *Packet
}

// eventHeap is a typed binary min-heap of events ordered by (at, seq).
// It serves two roles: the exact-order "due" heap for events at or below
// the wheel's base tick, and the overflow tier for events beyond the
// wheel horizon. Typed (no container/heap) to keep *event out of
// interface{} boxing.
type eventHeap []*event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev *event) {
	*h = append(*h, ev)
	// Sift up.
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *eventHeap) pop() *event {
	q := *h
	n := len(q) - 1
	root := q[0]
	q[0] = q[n]
	q[n] = nil
	q = q[:n]
	*h = q
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(l, smallest) {
			smallest = l
		}
		if r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return root
		}
		q[i], q[smallest] = q[smallest], q[i]
		i = smallest
	}
}

// Timer wheel geometry. A slot covers 2^slotShift nanoseconds of virtual
// time; the wheel spans wheelSlots of them. Packet-scale events (link
// latencies, serialization, RTTs) land in the wheel in O(1); anything
// farther out (RTO backoff tails, rekey intervals, housekeeping) goes to
// the overflow heap and migrates in as the wheel turns.
const (
	slotShift  = 14 // 16.384µs per slot
	wheelBits  = 12
	wheelSlots = 1 << wheelBits // 4096 slots ≈ 67ms horizon
	wheelMask  = wheelSlots - 1
	wheelWords = wheelSlots / 64
)

// Sim is a discrete-event simulation. The zero value is not usable; create
// one with New.
type Sim struct {
	now VTime
	seq uint64

	// Scheduling tiers. Invariants:
	//   - cur holds every pending event whose tick (at >> slotShift) is
	//     <= base, in exact (at, seq) heap order;
	//   - slots hold events with tick in (base, base+wheelSlots), unordered
	//     within a slot (cur re-sorts a slot when it drains);
	//   - overflow holds events with tick >= base+wheelSlots.
	// base only advances, and only to a tick that holds events, so the
	// pop order is the exact (at, seq) total order of the old global heap.
	base     int64
	cur      eventHeap
	overflow eventHeap
	slots    [wheelSlots]*event
	bitmap   [wheelWords]uint64
	nWheel   int

	free        []*event  // recycled event nodes
	waiterFree  []*waiter // recycled WaitQueue waiters
	procFree    []*Proc   // recycled processes (coroutine kept suspended)
	pktFree     []*Packet // recycled packets (see newPacket)
	pktOut      int       // packets handed out and not yet freed
	eventsFired uint64

	rng     *rand.Rand
	current *Proc   // process currently executing, nil in handlers
	parked  []*Proc // parked processes (swap-remove by parkedIdx)
	tracer  Tracer
}

// New creates a simulation whose random choices (loss, jitter) derive from
// seed. The same seed reproduces the same run exactly.
func New(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Sim) Now() VTime { return s.now }

// Rand returns the simulation's deterministic RNG. It must only be used
// from within simulation events/processes.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// EventsFired reports the total number of events dispatched so far; the
// scheduler microbenchmarks divide it by wall time for events/sec.
func (s *Sim) EventsFired() uint64 { return s.eventsFired }

// newEvent takes a node from the freelist (or allocates one), stamps it
// with the clamped time and the next sequence number, and returns it for
// the caller to fill in and insert.
func (s *Sim) newEvent(t VTime) *event {
	if t < s.now {
		t = s.now
	}
	s.seq++
	var ev *event
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.at, ev.seq = t, s.seq
	return ev
}

// insert places ev into the tier its tick belongs to. Also used to push
// back an already-stamped event (horizon stop, overflow migration), so it
// must not touch at/seq.
func (s *Sim) insert(ev *event) {
	tick := int64(ev.at >> slotShift)
	switch {
	case tick <= s.base:
		s.cur.push(ev)
	case tick < s.base+wheelSlots:
		idx := int(tick) & wheelMask
		ev.next = s.slots[idx]
		s.slots[idx] = ev
		s.bitmap[idx>>6] |= 1 << uint(idx&63)
		s.nWheel++
	default:
		s.overflow.push(ev)
	}
}

// recycle clears an event's payload and returns the node to the freelist.
func (s *Sim) recycle(ev *event) {
	ev.next = nil
	ev.fn = nil
	ev.p = nil
	ev.w = nil
	ev.tm = nil
	ev.dst = nil
	ev.pkt = nil
	s.free = append(s.free, ev)
}

// next pops the globally earliest event, turning the wheel and migrating
// overflow entries as needed. Returns nil when no events remain.
func (s *Sim) next() *event {
	for {
		if len(s.cur) > 0 {
			return s.cur.pop()
		}
		if s.nWheel > 0 {
			s.advance()
			continue
		}
		if len(s.overflow) > 0 {
			// Wheel empty: jump straight to the overflow's earliest tick.
			s.base = int64(s.overflow[0].at >> slotShift)
			s.migrate()
			continue
		}
		return nil
	}
}

// advance turns the wheel to the next occupied slot, drains it into cur,
// and pulls overflow events that the new base brings within the horizon.
func (s *Sim) advance() {
	baseIdx := int(s.base) & wheelMask
	idx := s.scanFrom((baseIdx + 1) & wheelMask)
	dist := int64((idx - baseIdx) & wheelMask)
	s.base += dist
	s.bitmap[idx>>6] &^= 1 << uint(idx&63)
	n := s.slots[idx]
	s.slots[idx] = nil
	for n != nil {
		nx := n.next
		n.next = nil
		s.cur.push(n)
		s.nWheel--
		n = nx
	}
	s.migrate()
}

// scanFrom returns the index of the first occupied slot at or after start,
// circularly. The caller guarantees the wheel is nonempty.
func (s *Sim) scanFrom(start int) int {
	wi := start >> 6
	w := s.bitmap[wi] &^ ((1 << uint(start&63)) - 1)
	for {
		if w != 0 {
			return wi<<6 + bits.TrailingZeros64(w)
		}
		wi = (wi + 1) & (wheelWords - 1)
		w = s.bitmap[wi]
	}
}

// migrate moves overflow events that now fall within the wheel horizon
// into their slots (or cur, for the base tick itself).
func (s *Sim) migrate() {
	limit := s.base + wheelSlots
	for len(s.overflow) > 0 && int64(s.overflow[0].at>>slotShift) < limit {
		s.insert(s.overflow.pop())
	}
}

// At schedules fn to run at virtual time t (clamped to now). It may be
// called from scheduler context (events, process code) or between runs.
func (s *Sim) At(t VTime, fn func()) {
	ev := s.newEvent(t)
	ev.kind = evFunc
	ev.fn = fn
	s.insert(ev)
}

// After schedules fn to run d from now.
func (s *Sim) After(d VTime, fn func()) { s.At(s.now+d, fn) }

// scheduleWake schedules the closure-free resumption of p at t.
func (s *Sim) scheduleWake(t VTime, p *Proc) {
	ev := s.newEvent(t)
	ev.kind = evWake
	ev.p = p
	s.insert(ev)
}

// scheduleDeliver schedules pkt's arrival at iface dst at t — the packet
// hot path, with no closure allocated per packet.
func (s *Sim) scheduleDeliver(t VTime, dst *Iface, pkt *Packet) {
	ev := s.newEvent(t)
	ev.kind = evDeliver
	ev.dst = dst
	ev.pkt = pkt
	s.insert(ev)
}

// Run executes events until the queue is empty, the horizon is exceeded, or
// no runnable process remains. It returns the virtual time reached.
func (s *Sim) Run(horizon VTime) VTime {
	for {
		ev := s.next()
		if ev == nil {
			break
		}
		if horizon > 0 && ev.at > horizon {
			s.now = horizon
			// Push back (at/seq intact) so a later Run can continue.
			s.insert(ev)
			break
		}
		s.now = ev.at
		s.fire(ev)
	}
	return s.now
}

// fire dispatches one event. The node is recycled before dispatch: the
// handler only ever sees the freelist, never ev, so a reschedule inside
// the handler may legitimately reuse the node.
func (s *Sim) fire(ev *event) {
	kind, gen := ev.kind, ev.gen
	fn, p, w, tm := ev.fn, ev.p, ev.w, ev.tm
	dst, pkt := ev.dst, ev.pkt
	s.recycle(ev)
	s.eventsFired++
	switch kind {
	case evFunc:
		fn()
	case evWake:
		s.wake(p)
	case evSpawn:
		s.transferTo(p)
	case evTimeout:
		// Stale if the waiter was recycled (gen moved on) or already woken
		// (no longer queued).
		if w.gen == gen && w.q != nil {
			w.q.remove(w)
			w.timedOut = true
			s.wake(w.p)
		}
	case evTimer:
		if tm.gen == gen && tm.armed {
			tm.armed = false
			tm.fn()
		}
	case evDeliver:
		dst.node.receive(dst, pkt)
	}
}

// Shutdown aborts every parked process, every process whose spawn event
// has not fired and every pooled idle worker, so that their coroutines
// unwind and end; the events still pending are dropped. It must be called
// from outside scheduler context after Run returns. Processes are resumed
// one at a time (LIFO, deterministically) with the aborted flag set;
// their API calls panic with a sentinel recovered by the worker loop. An
// unwinding process is the running one, so its deferred cleanup may still
// call Proc APIs.
func (s *Sim) Shutdown() {
	for len(s.parked) > 0 {
		p := s.parked[len(s.parked)-1]
		s.parked = s.parked[:len(s.parked)-1]
		p.parkedIdx = -1
		p.aborted = true
		s.transferTo(p)
	}
	for ev := s.next(); ev != nil; ev = s.next() {
		switch ev.kind {
		case evSpawn:
			ev.p.aborted = true
			s.transferTo(ev.p)
		case evDeliver:
			s.freePacket(ev.pkt)
		}
	}
	for _, p := range s.procFree {
		p.aborted = true
		s.transferTo(p)
	}
	s.procFree = nil
}

// simAbort is panicked inside a process when the simulation shuts down.
type simAbort struct{}

// Proc is a simulated process backed by a coroutine. All blocking methods
// must be called from the process itself; calling one from a
// run-to-completion handler (scheduler context) panics. Proc structs and
// their coroutines are pooled across spawn/exit: an exited process's
// worker stays suspended and is reused by a later Spawn.
type Proc struct {
	sim       *Sim
	name      string
	body      func(p *Proc)
	next      func() (struct{}, bool) // resumes the coroutine until it yields or ends
	yield     func(struct{}) bool     // suspends the coroutine; set by loop
	parkedIdx int
	aborted   bool
}

// Spawn starts a new process running fn at the current virtual time.
func (s *Sim) Spawn(name string, fn func(p *Proc)) {
	var p *Proc
	if n := len(s.procFree); n > 0 {
		p = s.procFree[n-1]
		s.procFree[n-1] = nil
		s.procFree = s.procFree[:n-1]
	} else {
		p = &Proc{sim: s, parkedIdx: -1}
		p.start()
	}
	p.name, p.body = name, fn
	ev := s.newEvent(s.now)
	ev.kind = evSpawn
	ev.p = p
	s.insert(ev)
}

// loop is the pooled worker, the body of p's coroutine: each iteration
// runs one spawned body, then returns the Proc to the freelist and hands
// control back. It returns, ending the coroutine, only on shutdown abort.
func (p *Proc) loop(yield func(struct{}) bool) {
	p.yield = yield
	for !p.aborted {
		p.runBody()
		if p.aborted {
			// Unwound by Shutdown mid-body: do not rejoin the pool.
			return
		}
		p.name, p.body = "", nil
		// Safe to touch scheduler state: the scheduler is suspended in
		// transferTo until we yield.
		p.sim.procFree = append(p.sim.procFree, p)
		yield(struct{}{})
	}
}

// runBody runs the spawned function, recovering the shutdown-abort panic.
// Any other panic ends the coroutine and resumes in the caller of
// transferTo, so Sim.Run panics with the body's value. That re-panic's
// traceback starts at transferTo, without the body's frames, so they are
// written to stderr here first.
func (p *Proc) runBody() {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(simAbort); !ok {
				fmt.Fprintf(os.Stderr, "netsim: process %q panicked: %v\n%s", p.name, r, debug.Stack())
				panic(r)
			}
		}
	}()
	p.body(p)
}

// transferTo switches to p's coroutine and returns when it parks, exits
// or ends. A Sleep cycle, one wheel event and a switch each way, costs
// ~0.25 µs. Must run in scheduler context. Kept out of line: inlined, the
// switch slows fire's other event kinds.
//
//go:noinline
func (s *Sim) transferTo(p *Proc) {
	s.current = p
	p.next()
	s.current = nil
}

// MayPark marks the entry of an API that may park p: it panics unless p is
// the process running now. Handlers run on the scheduler goroutine and
// must never block (DESIGN.md §5.2), and a process may only park itself.
// Every blocking API checks on entry, not only when it parks, so a call
// from the wrong context fails the first time it runs, even when its fast
// path would have returned without parking.
func (p *Proc) MayPark() {
	s := p.sim
	switch s.current {
	case p:
	case nil:
		panic("netsim: blocking Proc API called from scheduler context (proc " + p.name + ")")
	default:
		panic("netsim: blocking Proc API for proc " + p.name + " called from proc " + s.current.name)
	}
}

// park blocks the calling process until it is woken via an event. The
// caller must have arranged for a wake before parking.
func (p *Proc) park() {
	p.MayPark()
	s := p.sim
	p.parkedIdx = len(s.parked)
	s.parked = append(s.parked, p)
	p.yield(struct{}{})
	if p.aborted {
		panic(simAbort{})
	}
}

// wake resumes a parked process. Must run in scheduler context (inside an
// event callback).
func (s *Sim) wake(p *Proc) {
	i := p.parkedIdx
	if i < 0 {
		panic("netsim: waking non-parked process " + p.name)
	}
	last := len(s.parked) - 1
	s.parked[i] = s.parked[last]
	s.parked[i].parkedIdx = i
	s.parked[last] = nil
	s.parked = s.parked[:last]
	p.parkedIdx = -1
	s.transferTo(p)
}

// Name returns the process name (for traces).
func (p *Proc) Name() string { return p.name }

// Sim returns the simulation the process belongs to.
func (p *Proc) Sim() *Sim { return p.sim }

// Now returns the current virtual time.
func (p *Proc) Now() VTime { return p.sim.now }

// Sleep suspends the process for d of virtual time. Allocation-free: the
// wake rides a recycled typed event, not a closure.
func (p *Proc) Sleep(d VTime) {
	if d < 0 {
		d = 0
	}
	p.sim.scheduleWake(p.sim.now+d, p)
	p.park()
}

// Spawn starts a sibling process (convenience for fan-out inside a process).
func (p *Proc) Spawn(name string, fn func(p *Proc)) { p.sim.Spawn(name, fn) }

// waiter represents one entry blocked on a WaitQueue: either a process
// (p set), possibly racing a timeout, or a scheduler-context callback
// (fn set) used by async resource acquisition. Waiters are pooled; gen
// guards pooled reuse against stale timeout events still in the wheel.
type waiter struct {
	p          *Proc
	fn         func()
	q          *WaitQueue // the queue w is linked into; nil when not queued
	prev, next *waiter
	gen        uint64
	timedOut   bool
}

// getWaiter takes a waiter from the freelist or allocates one.
func (s *Sim) getWaiter() *waiter {
	if n := len(s.waiterFree); n > 0 {
		w := s.waiterFree[n-1]
		s.waiterFree[n-1] = nil
		s.waiterFree = s.waiterFree[:n-1]
		return w
	}
	return &waiter{}
}

// putWaiter recycles w, bumping gen so any stale timeout event for it
// becomes a no-op when its slot drains.
func (s *Sim) putWaiter(w *waiter) {
	w.gen++
	w.p, w.fn = nil, nil
	w.timedOut = false
	s.waiterFree = append(s.waiterFree, w)
}

// WaitQueue is a FIFO queue of waiters blocked on a condition: a doubly
// linked list through the pooled waiters, so enqueue, WakeOne and a
// timeout's mid-queue cancel are all O(1).
type WaitQueue struct {
	s          *Sim
	head, tail *waiter
}

// NewWaitQueue creates a wait queue bound to s.
func NewWaitQueue(s *Sim) *WaitQueue { return &WaitQueue{s: s} }

func (q *WaitQueue) push(w *waiter) {
	w.q, w.prev = q, q.tail
	if q.tail != nil {
		q.tail.next = w
	} else {
		q.head = w
	}
	q.tail = w
}

// remove unlinks w from the list.
func (q *WaitQueue) remove(w *waiter) {
	if w.prev != nil {
		w.prev.next = w.next
	} else {
		q.head = w.next
	}
	if w.next != nil {
		w.next.prev = w.prev
	} else {
		q.tail = w.prev
	}
	w.q, w.prev, w.next = nil, nil, nil
}

// Wait blocks p until WakeOne/WakeAll reaches it or the timeout elapses.
// timeout <= 0 means no timeout. It reports whether the wait timed out.
func (q *WaitQueue) Wait(p *Proc, timeout VTime) (timedOut bool) {
	return q.WaitUntil(p, q.s.Deadline(timeout))
}

// Deadline turns a relative timeout into the absolute deadline WaitUntil
// takes; timeout <= 0 (wait forever) gives zero, no deadline.
func (s *Sim) Deadline(timeout VTime) VTime {
	if timeout <= 0 {
		return 0
	}
	return s.now + timeout
}

// WaitUntil is Wait against an absolute deadline, for callers that wait
// in a loop under one overall timeout. A zero deadline means none; one
// that has already passed reports timed-out without parking.
// Allocation-free in steady state: the waiter and the timeout event are
// both pooled.
func (q *WaitQueue) WaitUntil(p *Proc, deadline VTime) (timedOut bool) {
	p.MayPark()
	if deadline != 0 && deadline <= q.s.now {
		return true
	}
	w := q.s.getWaiter()
	w.p = p
	q.push(w)
	if deadline != 0 {
		ev := q.s.newEvent(deadline)
		ev.kind = evTimeout
		ev.w = w
		ev.gen = w.gen
		q.s.insert(ev)
	}
	p.park()
	timedOut = w.timedOut
	q.s.putWaiter(w)
	return timedOut
}

// WaitFn enqueues fn as a waiter with no timeout; when its turn comes
// (WakeOne/WakeAll), fn runs in scheduler context at the current time.
// A woken fn must re-check its condition — like a woken process, it raced
// other claimants and may need to re-enqueue. Callers keep fn pre-bound
// (e.g. a pooled task's method value) so steady state allocates nothing.
func (q *WaitQueue) WaitFn(fn func()) {
	w := q.s.getWaiter()
	w.fn = fn
	q.push(w)
}

// WakeOne schedules the wakeup of the longest-waiting entry, if any.
// The wake happens via the event queue (at the current time) so the
// caller keeps running first; it reports whether an entry was woken.
func (q *WaitQueue) WakeOne() bool {
	w := q.head
	if w == nil {
		return false
	}
	q.remove(w)
	if w.fn != nil {
		fn := w.fn
		q.s.putWaiter(w)
		q.s.At(q.s.now, fn)
		return true
	}
	q.s.scheduleWake(q.s.now, w.p)
	return true
}

// WakeAll wakes every waiting entry.
func (q *WaitQueue) WakeAll() {
	for q.WakeOne() {
	}
}

// Timer is a re-armable virtual-time timer firing a pre-bound callback in
// scheduler context — the run-to-completion replacement for a process
// sleeping until its next deadline. Stop/Reset are O(1): the wheel entry
// is cancelled lazily via a generation check when its slot drains, so no
// wheel surgery is ever needed.
type Timer struct {
	s     *Sim
	fn    func()
	gen   uint64
	at    VTime
	armed bool
}

// NewTimer creates a timer that calls fn when it fires. fn runs in
// scheduler context and must not block.
func (s *Sim) NewTimer(fn func()) *Timer { return &Timer{s: s, fn: fn} }

// Reset (re)arms the timer to fire at absolute virtual time t, replacing
// any earlier deadline. Re-arming to the already-armed deadline is a
// no-op, so callers may re-assert their deadline every pass for free.
func (t *Timer) Reset(at VTime) {
	if at < t.s.now {
		at = t.s.now
	}
	if t.armed && t.at == at {
		return
	}
	t.gen++
	t.armed = true
	t.at = at
	ev := t.s.newEvent(at)
	ev.kind = evTimer
	ev.tm = t
	ev.gen = t.gen
	t.s.insert(ev)
}

// Stop disarms the timer; a pending fire becomes a no-op.
func (t *Timer) Stop() {
	if t.armed {
		t.gen++
		t.armed = false
	}
}

// Armed reports whether the timer has a pending deadline.
func (t *Timer) Armed() bool { return t.armed }
