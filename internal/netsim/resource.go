package netsim

import "time"

// Resource is a counted resource (e.g. CPU cores) with a FIFO grant queue.
type Resource struct {
	s     *Sim
	cap   int
	inUse int
	q     *WaitQueue
}

// NewResource creates a resource with capacity units.
func NewResource(s *Sim, capacity int) *Resource {
	if capacity < 1 {
		capacity = 1
	}
	return &Resource{s: s, cap: capacity, q: NewWaitQueue(s)}
}

// Acquire blocks p until one unit is available and claims it.
func (r *Resource) Acquire(p *Proc) {
	p.MayPark()
	for r.inUse >= r.cap {
		r.q.Wait(p, 0)
	}
	r.inUse++
}

// AcquireFn is the scheduler-context counterpart of Acquire: if a unit is
// free it is claimed and granted runs immediately; otherwise retry is
// enqueued in the same FIFO as blocking processes and runs when a unit is
// released. Like a woken process, retry must re-attempt the acquisition
// (other claimants may get there first) — typically by calling AcquireFn
// again with itself. Keeping retry pre-bound makes the path allocation-free.
func (r *Resource) AcquireFn(granted, retry func()) {
	if r.TryAcquire() {
		granted()
		return
	}
	r.q.WaitFn(retry)
}

// TryAcquire claims a unit if one is free without blocking.
func (r *Resource) TryAcquire() bool {
	if r.inUse >= r.cap {
		return false
	}
	r.inUse++
	return true
}

// Release returns one unit and wakes the next waiter.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("netsim: Release of idle resource")
	}
	r.inUse--
	r.q.WakeOne()
}

// Capacity reports the total number of units.
func (r *Resource) Capacity() int { return r.cap }

// SchedQuantum is the CPU scheduling time slice: a charge holds its core
// for at most one quantum, releases it and re-claims. The release wakes
// the longest waiter, but the holder re-claims before that waiter runs, so
// a running charge keeps its core to completion and slicing only rotates
// the waiters queued behind it — not round-robin sharing (ROADMAP item 8
// has the numbers a real one would move).
const SchedQuantum = 500 * time.Microsecond

// CPU models the processor of a simulated host: a core pool with a speed
// factor relative to one reference compute unit (≈ one 2012-era EC2 compute
// unit). Work expressed in reference-seconds takes work/speed wall time on
// one core, sliced into SchedQuantum pieces.
type CPU struct {
	cores *Resource
	speed float64
	// busy accumulates core-seconds consumed, for utilization reports.
	busy time.Duration
	s    *Sim
	// tasks recycles cpuTask structs (and their bound callbacks) across
	// charges.
	tasks []*cpuTask
}

// NewCPU creates a CPU with the given core count and per-core speed factor.
func NewCPU(s *Sim, cores int, speed float64) *CPU {
	if speed <= 0 {
		speed = 1
	}
	return &CPU{cores: NewResource(s, cores), speed: speed, s: s}
}

// Use charges work (expressed as time on a reference core) to the CPU and
// blocks p until it is fully charged: the task UseAsync queues, completed
// by resuming p. Zero or negative work is a no-op.
func (c *CPU) Use(p *Proc, work time.Duration) {
	p.MayPark()
	if work <= 0 {
		return
	}
	t := c.getTask()
	t.remaining = time.Duration(float64(work) / c.speed)
	t.p = p
	t.try()
	p.park()
}

// Stall seizes one core exclusively for d of virtual time without
// quantum slicing: unlike Use, no other process shares the core until it
// is released. It models a hung core (hypervisor pause, IO stall) rather
// than scheduled work; internal/faults seizes every core this way for a
// full backend stall.
func (c *CPU) Stall(p *Proc, d time.Duration) {
	p.MayPark()
	if d <= 0 {
		return
	}
	c.cores.Acquire(p)
	c.busy += d
	p.Sleep(d)
	c.cores.Release()
}

// cpuTask is one in-flight charge, completed by resuming a process (Use)
// or calling a callback (UseAsync). Tasks are pooled per CPU and carry
// their scheduler callbacks as method values bound once at allocation, so
// steady-state charging allocates nothing.
type cpuTask struct {
	c         *CPU
	remaining time.Duration
	slice     time.Duration
	p         *Proc
	done      func()
	tryFn     func() // bound t.try: (re)attempt core acquisition
	grantFn   func() // bound t.grant: core claimed, consume one slice
	sliceFn   func() // bound t.sliceDone: slice elapsed
}

func (c *CPU) getTask() *cpuTask {
	if n := len(c.tasks); n > 0 {
		t := c.tasks[n-1]
		c.tasks[n-1] = nil
		c.tasks = c.tasks[:n-1]
		return t
	}
	t := &cpuTask{c: c}
	t.tryFn = t.try
	t.grantFn = t.grant
	t.sliceFn = t.sliceDone
	return t
}

func (t *cpuTask) try() { t.c.cores.AcquireFn(t.grantFn, t.tryFn) }

func (t *cpuTask) grant() {
	slice := t.remaining
	if slice > SchedQuantum {
		slice = SchedQuantum
	}
	t.slice = slice
	t.c.busy += slice
	t.c.s.After(slice, t.sliceFn)
}

func (t *cpuTask) sliceDone() {
	c := t.c
	c.cores.Release()
	t.remaining -= t.slice
	if t.remaining > 0 {
		t.try()
		return
	}
	p, done := t.p, t.done
	t.p, t.done = nil, nil
	c.tasks = append(c.tasks, t)
	switch {
	case p != nil:
		// Resumed here, not through the event queue: an extra event would
		// let the waiter Release just woke run before the charged process
		// continues, reordering the packets the two send.
		c.s.wake(p)
	case done != nil:
		done()
	}
}

// UseAsync charges work to the CPU from scheduler context, with no
// process: the charge queues for a core in the cores' FIFO, consumes it in
// SchedQuantum slices, and calls done (may be nil) once fully charged.
func (c *CPU) UseAsync(work time.Duration, done func()) {
	if work <= 0 {
		if done != nil {
			done()
		}
		return
	}
	t := c.getTask()
	t.remaining = time.Duration(float64(work) / c.speed)
	t.done = done
	t.try()
}

// Cores reports the number of cores.
func (c *CPU) Cores() int { return c.cores.Capacity() }

// BusyTime reports accumulated core-time consumed.
func (c *CPU) BusyTime() time.Duration { return c.busy }
