package netsim

import (
	"flag"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.At(2*time.Millisecond, func() { got = append(got, 2) })
	s.At(1*time.Millisecond, func() { got = append(got, 1) })
	s.At(2*time.Millisecond, func() { got = append(got, 3) }) // same time: FIFO
	s.At(0, func() { got = append(got, 0) })
	s.Run(0)
	want := []int{0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestRunHorizon(t *testing.T) {
	s := New(1)
	fired := false
	s.At(10*time.Millisecond, func() { fired = true })
	end := s.Run(5 * time.Millisecond)
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if end != 5*time.Millisecond {
		t.Fatalf("end = %v, want 5ms", end)
	}
	s.Run(0)
	if !fired {
		t.Fatal("event not fired on continued run")
	}
}

func TestProcSleep(t *testing.T) {
	s := New(1)
	var wake VTime
	s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(7 * time.Millisecond)
		wake = p.Now()
	})
	s.Run(0)
	if wake != 7*time.Millisecond {
		t.Fatalf("woke at %v, want 7ms", wake)
	}
}

func TestProcInterleaving(t *testing.T) {
	s := New(1)
	var log []string
	s.Spawn("a", func(p *Proc) {
		log = append(log, "a0")
		p.Sleep(2 * time.Millisecond)
		log = append(log, "a2")
		p.Sleep(2 * time.Millisecond)
		log = append(log, "a4")
	})
	s.Spawn("b", func(p *Proc) {
		p.Sleep(1 * time.Millisecond)
		log = append(log, "b1")
		p.Sleep(2 * time.Millisecond)
		log = append(log, "b3")
	})
	s.Run(0)
	want := []string{"a0", "b1", "a2", "b3", "a4"}
	if len(log) != len(want) {
		t.Fatalf("log = %v", log)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}

func TestWaitQueueWakeOrder(t *testing.T) {
	s := New(1)
	q := NewWaitQueue(s)
	var order []string
	for _, name := range []string{"p1", "p2", "p3"} {
		name := name
		s.Spawn(name, func(p *Proc) {
			q.Wait(p, 0)
			order = append(order, name)
		})
	}
	s.Spawn("waker", func(p *Proc) {
		p.Sleep(time.Millisecond)
		q.WakeAll()
	})
	s.Run(0)
	if len(order) != 3 || order[0] != "p1" || order[1] != "p2" || order[2] != "p3" {
		t.Fatalf("wake order = %v, want FIFO", order)
	}
}

func TestWaitQueueTimeout(t *testing.T) {
	s := New(1)
	q := NewWaitQueue(s)
	var timedOut bool
	var at VTime
	s.Spawn("waiter", func(p *Proc) {
		timedOut = q.Wait(p, 5*time.Millisecond)
		at = p.Now()
	})
	s.Run(0)
	if !timedOut {
		t.Fatal("expected timeout")
	}
	if at != 5*time.Millisecond {
		t.Fatalf("timed out at %v, want 5ms", at)
	}
	if q.head != nil || q.tail != nil {
		t.Fatal("queue not cleaned")
	}
}

func TestWaitQueueWakeBeatsTimeout(t *testing.T) {
	s := New(1)
	q := NewWaitQueue(s)
	var timedOut bool
	s.Spawn("waiter", func(p *Proc) {
		timedOut = q.Wait(p, 10*time.Millisecond)
	})
	s.Spawn("waker", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		q.WakeOne()
	})
	s.Run(0)
	if timedOut {
		t.Fatal("woken wait reported timeout")
	}
}

func TestResourceContention(t *testing.T) {
	s := New(1)
	r := NewResource(s, 2)
	var done []VTime
	for i := 0; i < 4; i++ {
		s.Spawn("worker", func(p *Proc) {
			r.Acquire(p)
			p.Sleep(10 * time.Millisecond)
			r.Release()
			done = append(done, p.Now())
		})
	}
	s.Run(0)
	// 2 cores, 4 jobs of 10ms: two finish at 10ms, two at 20ms.
	if len(done) != 4 {
		t.Fatalf("done = %v", done)
	}
	if done[0] != 10*time.Millisecond || done[1] != 10*time.Millisecond ||
		done[2] != 20*time.Millisecond || done[3] != 20*time.Millisecond {
		t.Fatalf("completion times = %v", done)
	}
}

func TestCPUSpeedScaling(t *testing.T) {
	s := New(1)
	c := NewCPU(s, 1, 2.0) // double-speed core
	var end VTime
	s.Spawn("job", func(p *Proc) {
		c.Use(p, 10*time.Millisecond)
		end = p.Now()
	})
	s.Run(0)
	if end != 5*time.Millisecond {
		t.Fatalf("end = %v, want 5ms on 2x core", end)
	}
	if c.BusyTime() != 5*time.Millisecond {
		t.Fatalf("busy = %v", c.BusyTime())
	}
}

func TestShutdownUnwindsParked(t *testing.T) {
	s := New(1)
	q := NewWaitQueue(s)
	started := 0
	s.Spawn("stuck", func(p *Proc) {
		started++
		q.Wait(p, 0) // never woken
		t.Error("stuck process resumed normally")
	})
	s.Run(0)
	if started != 1 {
		t.Fatal("process never started")
	}
	s.Shutdown()
	if len(s.parked) != 0 {
		t.Fatalf("still parked: %d", len(s.parked))
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []VTime {
		s := New(42)
		var ts []VTime
		for i := 0; i < 5; i++ {
			s.Spawn("p", func(p *Proc) {
				d := time.Duration(s.Rand().Int63n(int64(10 * time.Millisecond)))
				p.Sleep(d)
				ts = append(ts, p.Now())
			})
		}
		s.Run(0)
		return ts
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run %d: %v != %v", i, a[i], b[i])
		}
	}
}

// TestProcPanicReachesRunCaller: a process body's panic, other than the
// shutdown abort, ends its coroutine and resumes in the caller of Run,
// where recover sees the body's own value.
func TestProcPanicReachesRunCaller(t *testing.T) {
	type boom struct{ n int }
	s := New(1)
	s.Spawn("bomb", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic(boom{7})
	})
	got := func() (r any) {
		defer func() { r = recover() }()
		s.Run(0)
		return nil
	}()
	if got != (boom{7}) {
		t.Fatalf("Run recovered %v, want the body's boom{7}", got)
	}
}

// TestProcPanicPrintsTheBodysFrames: the re-panic in Run's caller starts a
// fresh traceback, so a body's panic prints the body's own frames first.
// The test runs its own binary on a body that panics in a helper and
// looks for the helper in what the child wrote.
func TestProcPanicPrintsTheBodysFrames(t *testing.T) {
	if flag.Arg(0) == "panic-in-body" {
		s := New(1)
		s.Spawn("bomb", func(p *Proc) {
			p.Sleep(time.Millisecond)
			panicInHelper()
		})
		s.Run(0)
		return
	}
	out, err := exec.Command(os.Args[0], "-test.run=^TestProcPanicPrintsTheBodysFrames$", "panic-in-body").CombinedOutput()
	if err == nil {
		t.Fatalf("the child's body did not panic:\n%s", out)
	}
	for _, want := range []string{`netsim: process "bomb" panicked: boom in helper`, "netsim.panicInHelper("} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("the child's output lacks %q:\n%s", want, out)
		}
	}
}

//go:noinline
func panicInHelper() { panic("boom in helper") }

// TestShutdownEndsEveryCoroutine: after Shutdown no goroutine of the
// simulation is left, whether its process was parked, idle in the pool,
// parked again by its own deferred cleanup while unwinding, or spawned
// after the last Run and never started.
func TestShutdownEndsEveryCoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(1)
	q := NewWaitQueue(s)
	for range 3 {
		s.Spawn("parked", func(p *Proc) { q.Wait(p, 0) })
		s.Spawn("pooled", func(p *Proc) { p.Sleep(time.Millisecond) })
	}
	s.Spawn("deferred", func(p *Proc) {
		defer q.Wait(p, 0)
		q.Wait(p, 0)
	})
	s.Run(0)
	if len(s.parked) != 4 || len(s.procFree) != 3 {
		t.Fatalf("%d parked and %d pooled procs, want 4 and 3", len(s.parked), len(s.procFree))
	}
	if n := runtime.NumGoroutine() - before; n != 7 {
		t.Fatalf("%d goroutines for 7 live procs", n)
	}
	ran := false
	for range 4 { // three take pooled procs, the fourth a new one
		s.Spawn("unstarted", func(p *Proc) { ran = true })
	}
	s.Shutdown()
	if ran {
		t.Error("a process spawned after the last Run ran its body during Shutdown")
	}
	if n := runtime.NumGoroutine() - before; n != 0 {
		t.Fatalf("%d goroutines left after Shutdown", n)
	}
}

// TestSleepCycleAllocatesNothing: one Sleep park/wake cycle, from the wake
// event through the switch to the process and back, allocates nothing.
func TestSleepCycleAllocatesNothing(t *testing.T) {
	const tick = 10 * time.Microsecond
	s := New(1)
	s.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(tick)
		}
	})
	s.Run(tick)
	if allocs := testing.AllocsPerRun(100, func() { s.Run(s.Now() + tick) }); allocs != 0 {
		t.Errorf("one Sleep cycle allocates %v times, want 0", allocs)
	}
	s.Shutdown()
}

func BenchmarkEventThroughput(b *testing.B) {
	// Raw scheduler capacity: chained events.
	s := New(1)
	n := 0
	var fn func()
	fn = func() {
		n++
		if n < b.N {
			s.After(time.Microsecond, fn)
		}
	}
	s.After(0, fn)
	b.ResetTimer()
	s.Run(0)
}

func BenchmarkProcContextSwitch(b *testing.B) {
	// Two processes ping-ponging through wait queues: each op is one
	// round trip (two park/wake pairs, each a switch to a coroutine). "a"
	// parks first so no wakeup is ever lost.
	s := New(1)
	q1, q2 := NewWaitQueue(s), NewWaitQueue(s)
	rounds := b.N
	s.Spawn("a", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			q1.Wait(p, 0)
			q2.WakeOne()
		}
	})
	s.Spawn("b", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			q1.WakeOne()
			q2.Wait(p, 0)
		}
	})
	b.ResetTimer()
	s.Run(0)
	s.Shutdown()
}

func BenchmarkProcSleepWake(b *testing.B) {
	// The closure-free sleeper path: park, evWake through the wheel,
	// resume — the cost a parked-process protocol pays per timer tick.
	s := New(1)
	rounds := b.N
	s.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			p.Sleep(10 * time.Microsecond)
		}
	})
	b.ResetTimer()
	s.Run(0)
	s.Shutdown()
}

func BenchmarkTimerResetFire(b *testing.B) {
	// Run-to-completion deadline churn: a timer re-arming itself from its
	// own callback. Measures wheel insert + lazy-cancel + fire with no
	// goroutine involved — the path the simtcp/hipsim service loops ride.
	s := New(1)
	n := 0
	var tm *Timer
	tm = s.NewTimer(func() {
		n++
		if n < b.N {
			// Re-arm twice: the superseded deadline exercises the stale
			// generation check when its wheel slot drains.
			tm.Reset(s.Now() + 20*time.Microsecond)
			tm.Reset(s.Now() + 10*time.Microsecond)
		}
	})
	tm.Reset(10 * time.Microsecond)
	b.ResetTimer()
	s.Run(0)
}
