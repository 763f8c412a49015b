package netsim

import (
	"math/rand"
	"strings"
	"testing"
	"time"
)

// refSched is an independent reference scheduler: a flat slice popped by
// linear min-scan on (at, seq). Deliberately naive — it shares no code
// with the timer wheel, so agreement between the two is evidence the
// wheel's three tiers (cur heap / slots / overflow heap) preserve the
// exact (at, seq) total order across slot boundaries, horizon jumps and
// re-entrant scheduling.
type refSched struct {
	now VTime
	seq uint64
	evs []refEv
}

type refEv struct {
	at  VTime
	seq uint64
	fn  func()
}

func (r *refSched) Now() VTime { return r.now }

func (r *refSched) At(t VTime, fn func()) {
	if t < r.now {
		t = r.now
	}
	r.seq++
	r.evs = append(r.evs, refEv{at: t, seq: r.seq, fn: fn})
}

func (r *refSched) Run() {
	for len(r.evs) > 0 {
		best := 0
		for i := 1; i < len(r.evs); i++ {
			e, b := r.evs[i], r.evs[best]
			if e.at < b.at || (e.at == b.at && e.seq < b.seq) {
				best = i
			}
		}
		ev := r.evs[best]
		r.evs[best] = r.evs[len(r.evs)-1]
		r.evs = r.evs[:len(r.evs)-1]
		r.now = ev.at
		ev.fn()
	}
}

// clock abstracts Sim and refSched for the shared workload generator.
type clock interface {
	Now() VTime
	At(t VTime, fn func())
}

// wheelWorkload drives a randomized schedule against c and returns the
// (id, fire-time) trace. Offsets are drawn across the wheel's regimes:
// zero (same-timestamp ties), sub-slot, in-wheel, exact slot multiples
// (boundary ticks) and beyond-horizon (overflow tier, including jumps
// that advance base past the whole wheel). A fraction of handlers
// re-entrantly schedule children, which exercises insertion below and
// around a moving base.
func wheelWorkload(c clock, seed int64) []VTime {
	rng := rand.New(rand.NewSource(seed))
	var trace []VTime
	var id int
	offset := func() VTime {
		switch rng.Intn(5) {
		case 0:
			return 0
		case 1:
			return VTime(rng.Int63n(int64(20 * time.Microsecond)))
		case 2:
			return VTime(rng.Int63n(int64(50 * time.Millisecond)))
		case 3:
			// Exact slot-width multiples land on tick boundaries.
			return VTime(rng.Int63n(64)) << slotShift
		default:
			// Beyond the ~67ms horizon: overflow tier.
			return VTime(int64(70*time.Millisecond) + rng.Int63n(int64(2*time.Second)))
		}
	}
	var schedule func(depth int)
	schedule = func(depth int) {
		at := c.Now() + offset()
		myID := VTime(id)
		id++
		c.At(at, func() {
			trace = append(trace, myID, c.Now())
			if depth > 0 && rng.Intn(3) == 0 {
				for n := rng.Intn(3); n >= 0; n-- {
					schedule(depth - 1)
				}
			}
		})
	}
	for i := 0; i < 2000; i++ {
		schedule(3)
	}
	return trace
}

// TestWheelDifferential checks the wheel against the reference scheduler
// on randomized workloads: identical (id, time) fire traces, event for
// event, across several seeds.
func TestWheelDifferential(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		s := New(1)
		wheelTrace := wheelWorkload(s, seed)
		s.Run(0)
		ref := &refSched{}
		refTrace := wheelWorkload(ref, seed)
		ref.Run()
		if len(wheelTrace) != len(refTrace) {
			t.Fatalf("seed %d: wheel fired %d entries, reference %d", seed, len(wheelTrace), len(refTrace))
		}
		for i := range wheelTrace {
			if wheelTrace[i] != refTrace[i] {
				t.Fatalf("seed %d: trace diverges at %d: wheel %v, reference %v", seed, i, wheelTrace[i], refTrace[i])
			}
		}
	}
}

// TestWheelHorizonStopResume checks that stopping Run at a horizon and
// resuming preserves order for events at, before and after the stop time,
// including overflow events migrated across the pause.
func TestWheelHorizonStopResume(t *testing.T) {
	s := New(1)
	var got []int
	for i, d := range []VTime{
		90 * time.Millisecond, // overflow at schedule time
		10 * time.Millisecond,
		50 * time.Millisecond,
		50 * time.Millisecond, // same-timestamp tie
		200 * time.Millisecond,
	} {
		i := i
		s.At(d, func() { got = append(got, i) })
	}
	s.Run(50 * time.Millisecond) // stops with the 50ms events pending or fired
	s.At(60*time.Millisecond, func() { got = append(got, 5) })
	s.Run(0)
	want := []int{1, 2, 3, 5, 0, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestTimerResetStop checks the generation-guarded Timer: reschedules
// supersede earlier deadlines, Stop cancels, and a Reset to the same
// deadline neither duplicates nor drops the fire.
func TestTimerResetStop(t *testing.T) {
	s := New(1)
	var fires []VTime
	tm := s.NewTimer(func() { fires = append(fires, s.Now()) })
	tm.Reset(10 * time.Millisecond)
	tm.Reset(10 * time.Millisecond) // same deadline: no-op, still one fire
	tm.Reset(5 * time.Millisecond)  // earlier: supersedes
	s.Run(0)
	if len(fires) != 1 || fires[0] != 5*time.Millisecond {
		t.Fatalf("fires = %v, want [5ms]", fires)
	}
	if tm.Armed() {
		t.Fatal("timer still armed after fire")
	}

	tm.Reset(20 * time.Millisecond)
	tm.Stop()
	s.Run(0)
	if len(fires) != 1 {
		t.Fatalf("stopped timer fired: %v", fires)
	}

	// Stop then re-arm: only the new deadline fires, even though the
	// stale event node for 30ms is still in the queue when 25ms is set.
	tm.Reset(30 * time.Millisecond)
	tm.Stop()
	tm.Reset(25 * time.Millisecond)
	s.Run(0)
	if len(fires) != 2 || fires[1] != 25*time.Millisecond {
		t.Fatalf("fires = %v, want second at 25ms", fires)
	}
}

// TestParkFromSchedulerContextPanics checks the run-to-completion
// referee: a blocking Proc API reached from a run-to-completion handler
// must panic loudly instead of deadlocking the scheduler goroutine.
func TestParkFromSchedulerContextPanics(t *testing.T) {
	s := New(1)
	q := NewWaitQueue(s)
	var leaked *Proc
	s.Spawn("victim", func(p *Proc) {
		leaked = p
		q.Wait(p, 0) // parks forever; woken only during Shutdown
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("blocking Proc API from scheduler context did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "scheduler context") {
			t.Fatalf("unexpected panic value: %v", r)
		}
	}()
	s.At(time.Millisecond, func() {
		leaked.Sleep(time.Millisecond) // contract violation: handler blocks
	})
	s.Run(0)
}

// TestBlockingAPIsCheckTheirCallerOnEntry pins the rest of the referee:
// every netsim API that may park its process panics when it runs in a
// handler or on another process's behalf, even when its fast path would
// return without parking, so the first call from the wrong context fails
// rather than only the one that finds its condition unmet.
func TestBlockingAPIsCheckTheirCallerOnEntry(t *testing.T) {
	fastPaths := []struct {
		name string
		call func(s *Sim, p *Proc)
	}{
		{"WaitQueue.WaitUntil past its deadline", func(s *Sim, p *Proc) { NewWaitQueue(s).WaitUntil(p, time.Nanosecond) }},
		{"CPU.Use of no work", func(s *Sim, p *Proc) { NewCPU(s, 1, 1).Use(p, 0) }},
		{"CPU.Stall of no time", func(s *Sim, p *Proc) { NewCPU(s, 1, 1).Stall(p, 0) }},
		{"Resource.Acquire of a free unit", func(s *Sim, p *Proc) { NewResource(s, 1).Acquire(p) }},
		{"UDPSocket.RecvFrom of a queued datagram", func(s *Sim, p *Proc) {
			(&UDPSocket{buf: []Datagram{{}}}).RecvFrom(p, 0)
		}},
		{"EchoWait.Wait after its reply", func(s *Sim, p *Proc) {
			w := NewEchoWait(s)
			w.Done()
			w.Wait(p, 0)
		}},
	}
	for _, fp := range fastPaths {
		for _, from := range []string{"scheduler context", "called from proc intruder"} {
			s := New(1)
			var victim *Proc
			s.Spawn("victim", func(p *Proc) {
				victim = p
				NewWaitQueue(s).Wait(p, 0) // parks until Shutdown
			})
			var got interface{}
			call := func() {
				defer func() { got = recover() }()
				fp.call(s, victim)
			}
			if from == "scheduler context" {
				s.At(time.Millisecond, call)
			} else {
				s.At(time.Millisecond, func() { s.Spawn("intruder", func(*Proc) { call() }) })
			}
			s.Run(0)
			s.Shutdown()
			if msg, _ := got.(string); !strings.Contains(msg, from) {
				t.Errorf("%s %s: panic %v, want one naming %q", fp.name, from, got, from)
			}
		}
	}
}

// TestShutdownUnwindsThroughDeferredProcCalls: a process that Shutdown
// unwinds is the running process, so its deferred cleanup may still call
// a blocking API, and one that parks again is simply aborted again.
func TestShutdownUnwindsThroughDeferredProcCalls(t *testing.T) {
	s := New(1)
	q := NewWaitQueue(s)
	cleaned := false
	s.Spawn("worker", func(p *Proc) {
		defer func() { cleaned = true }()
		defer q.Wait(p, 0)              // parks while unwinding
		defer NewCPU(s, 1, 1).Use(p, 0) // returns at once
		q.Wait(p, 0)
	})
	s.Run(0)
	s.Shutdown()
	if !cleaned {
		t.Fatal("the worker's deferred cleanup did not run to the end")
	}
}

// TestWaitTimeoutFIFOAndCancel checks WaitQueue semantics under the
// linked waiter list: FIFO wake order, timeout unlinking at the head, in
// the middle and at the tail, and no spurious wake from a stale timeout
// event after the waiter was already woken and recycled.
func TestWaitTimeoutFIFOAndCancel(t *testing.T) {
	s := New(1)
	q := NewWaitQueue(s)
	var woke []string
	wait := func(name string, timeout time.Duration) {
		s.Spawn(name, func(p *Proc) {
			if q.Wait(p, timeout) {
				woke = append(woke, name+"-timeout")
			} else {
				woke = append(woke, name)
			}
		})
	}
	wait("a", 0)
	wait("b", 10*time.Millisecond) // times out mid-queue
	wait("c", 0)
	s.At(20*time.Millisecond, func() { q.WakeOne() }) // wakes a
	s.At(30*time.Millisecond, func() { q.WakeOne() }) // wakes c (b gone)
	s.Run(0)
	want := []string{"b-timeout", "a", "c"}
	if len(woke) != len(want) {
		t.Fatalf("woke = %v, want %v", woke, want)
	}
	for i := range want {
		if woke[i] != want[i] {
			t.Fatalf("woke = %v, want %v", woke, want)
		}
	}

	// Wake before the timeout expires: the pending timeout event must not
	// re-wake or corrupt the recycled waiter.
	woke = woke[:0]
	now := s.Now()
	wait("d", 50*time.Millisecond)
	s.At(now+time.Millisecond, func() { q.WakeOne() })
	// Another waiter reuses the slot while d's timeout event is in flight.
	s.At(now+2*time.Millisecond, func() { wait("e", 0) })
	s.At(now+60*time.Millisecond, func() { q.WakeOne() })
	s.Run(0)
	want = []string{"d", "e"}
	if len(woke) != len(want) {
		t.Fatalf("woke = %v, want %v", woke, want)
	}
	for i := range want {
		if woke[i] != want[i] {
			t.Fatalf("woke = %v, want %v", woke, want)
		}
	}

	// Timeouts unlink the head, a middle entry and the tail; WakeAll then
	// reaches the survivors in arrival order. The survivors' own timeouts
	// are still in flight when x reuses one of their recycled waiters: it
	// must sleep through them until its wake.
	woke = woke[:0]
	now = s.Now()
	wait("h", 5*time.Millisecond)
	wait("s1", 50*time.Millisecond)
	wait("m", 6*time.Millisecond)
	wait("s2", 55*time.Millisecond)
	wait("tl", 7*time.Millisecond)
	s.At(now+10*time.Millisecond, q.WakeAll)
	s.At(now+11*time.Millisecond, func() { wait("x", 0) })
	var xWoke VTime
	s.At(now+100*time.Millisecond, func() {
		if len(woke) == 5 { // x still asleep past both stale timeouts
			xWoke = s.Now()
		}
		q.WakeOne()
	})
	s.Run(0)
	want = []string{"h-timeout", "m-timeout", "tl-timeout", "s1", "s2", "x"}
	if len(woke) != len(want) {
		t.Fatalf("woke = %v, want %v", woke, want)
	}
	for i := range want {
		if woke[i] != want[i] {
			t.Fatalf("woke = %v, want %v", woke, want)
		}
	}
	if xWoke != now+100*time.Millisecond {
		t.Fatal("x woke before its WakeOne: a stale timeout reached the recycled waiter")
	}
	if q.head != nil || q.tail != nil {
		t.Fatal("queue not empty after every waiter left")
	}
}

// TestWaitUntil checks the absolute-deadline wait the Dial/Accept/RecvFrom/
// Establish loops share: a passed deadline reports timed-out without
// parking, a zero deadline waits for the wake, and at the deadline instant
// whichever of wake and timeout was scheduled first wins.
func TestWaitUntil(t *testing.T) {
	s := New(1)
	q := NewWaitQueue(s)
	const ms = time.Millisecond
	s.Spawn("passed", func(p *Proc) {
		p.Sleep(5 * ms)
		fired := s.EventsFired()
		for _, deadline := range []VTime{3 * ms, 5 * ms} {
			if !q.WaitUntil(p, deadline) {
				t.Errorf("deadline %v at %v: not reported as timed out", deadline, p.Now())
			}
		}
		if s.EventsFired() != fired || q.head != nil {
			t.Error("a passed deadline parked the process")
		}
	})
	s.Run(0)

	var zeroAt VTime
	s.Spawn("zero", func(p *Proc) {
		if q.WaitUntil(p, 0) {
			t.Error("zero deadline timed out")
		}
		zeroAt = p.Now()
	})
	s.At(s.Now()+2*ms, func() { q.WakeOne() })
	s.Run(0)
	if zeroAt != 7*ms {
		t.Errorf("zero-deadline wait resumed at %v, want the wake at 7ms", zeroAt)
	}

	// The wake below is scheduled before the waiter runs, so at the
	// deadline instant it fires ahead of the timeout: the wait reports a
	// wake, and only the next wait on the same deadline times out.
	deadline := s.Now() + 10*ms
	s.At(deadline, func() { q.WakeOne() })
	s.Spawn("tie", func(p *Proc) {
		if q.WaitUntil(p, deadline) {
			t.Error("wake at the deadline instant lost to the timeout")
		}
		if p.Now() != deadline || !q.WaitUntil(p, deadline) {
			t.Error("second wait on the reached deadline did not time out at once")
		}
	})
	s.Run(0)
	// Scheduled after the waiter armed its timeout, the wake comes second
	// and finds nobody.
	deadline = s.Now() + 10*ms
	s.At(s.Now()+ms, func() {
		s.At(deadline, func() {
			if q.WakeOne() {
				t.Error("timed-out waiter was still queued")
			}
		})
	})
	s.Spawn("late", func(p *Proc) {
		if !q.WaitUntil(p, deadline) {
			t.Error("timeout scheduled first did not win")
		}
	})
	s.Run(0)
}
