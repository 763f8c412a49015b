package netsim

import (
	"testing"
	"time"
)

// cpuJob is one charge in a job mix: at start, a freshly spawned process
// claims work on the CPU, either blocking in Use or handing UseAsync a
// completion callback.
type cpuJob struct {
	start time.Duration
	work  time.Duration
	async bool
}

// runCPUJobs plays the mix on a fresh CPU and returns each job's finish
// time and the CPU's busy time. Every job is issued from a process of its
// own, so a job claims the CPU at the same point in the event order
// whichever of the two calls it makes.
func runCPUJobs(cores int, jobs []cpuJob) ([]VTime, time.Duration) {
	s := New(1)
	c := NewCPU(s, cores, 1)
	finish := make([]VTime, len(jobs))
	for i, j := range jobs {
		i, j := i, j
		s.At(j.start, func() {
			s.Spawn("job", func(p *Proc) {
				if j.async {
					c.UseAsync(j.work, func() { finish[i] = s.Now() })
					return
				}
				c.Use(p, j.work)
				finish[i] = p.Now()
			})
		})
	}
	s.Run(0)
	s.Shutdown()
	return finish, c.BusyTime()
}

// TestCPUUseMatchesUseAsync pins what riding Use on the UseAsync task must
// keep: one job mix finishes every job at the same virtual instant, with
// the same busy time, whether its charges block a process, complete a
// callback, or interleave the two.
func TestCPUUseMatchesUseAsync(t *testing.T) {
	const us = time.Microsecond
	mix := []cpuJob{
		{start: 0, work: 5000 * us},         // ten quanta
		{start: 0, work: 1700 * us},         // multi-quantum, ragged tail
		{start: 100 * us, work: 100 * us},   // sub-quantum, queued behind both
		{start: 100 * us, work: 500 * us},   // exactly one quantum
		{start: 600 * us, work: 1200 * us},  // arrives at a slice boundary
		{start: 2000 * us, work: 50 * us},   // late, short
		{start: 2000 * us, work: 2600 * us}, // late, long
		{start: 40000 * us, work: 700 * us}, // idle CPU
	}
	variant := func(async func(i int) bool) []cpuJob {
		jobs := append([]cpuJob(nil), mix...)
		for i := range jobs {
			jobs[i].async = async(i)
		}
		return jobs
	}
	for _, cores := range []int{1, 2} {
		want, wantBusy := runCPUJobs(cores, variant(func(int) bool { return true }))
		for i, f := range want {
			if f < mix[i].start+mix[i].work {
				t.Fatalf("%d cores: job %d finished at %v, before its work could", cores, i, f)
			}
		}
		for name, async := range map[string]func(int) bool{
			"Use":         func(int) bool { return false },
			"Use first":   func(i int) bool { return i%2 == 1 },
			"Async first": func(i int) bool { return i%2 == 0 },
		} {
			got, busy := runCPUJobs(cores, variant(async))
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%d cores, %s: job %d finished at %v, UseAsync-only at %v", cores, name, i, got[i], want[i])
				}
			}
			if busy != wantBusy {
				t.Errorf("%d cores, %s: busy %v, UseAsync-only %v", cores, name, busy, wantBusy)
			}
		}
	}
}

// chargeLoop charges multi-quantum work until *stop is set or n charges
// are done (n < 0: no bound). The 1µs pause is what makes contention
// real: a process that charges again without yielding re-claims the core
// before the waiter its Release woke gets to run (see SchedQuantum).
func chargeLoop(c *CPU, stop *bool, n int) func(p *Proc) {
	return func(p *Proc) {
		for i := 0; i != n && !*stop; i++ {
			c.Use(p, 3*SchedQuantum/2)
			p.Sleep(time.Microsecond)
		}
		if n >= 0 {
			*stop = true
		}
	}
}

// TestCPUUseAllocatesNothing guards the blocking charge path: the task,
// its core-queue waiter and its slice events are all pooled.
func TestCPUUseAllocatesNothing(t *testing.T) {
	s := New(1)
	c := NewCPU(s, 1, 1)
	var stop bool
	for i := 0; i < 3; i++ {
		s.Spawn("charger", chargeLoop(c, &stop, -1))
	}
	s.Run(100 * time.Millisecond) // warm the pools
	before := c.BusyTime()
	allocs := testing.AllocsPerRun(50, func() {
		s.Run(s.Now() + 20*time.Millisecond) // some 26 contended charges
	})
	if c.BusyTime() == before {
		t.Fatal("no charge ran inside the measured window")
	}
	stop = true
	s.Run(0)
	s.Shutdown()
	if allocs != 0 {
		t.Fatalf("CPU.Use allocates %.1f times per 20ms of contended charging, want 0", allocs)
	}
}

func BenchmarkCPUUse(b *testing.B) {
	// One process charging multi-quantum work on a core a rival keeps
	// busy: every op queues for the core, runs two slices and hands over.
	s := New(1)
	c := NewCPU(s, 1, 1)
	var stop bool
	s.Spawn("rival", chargeLoop(c, &stop, -1))
	s.Spawn("charger", chargeLoop(c, &stop, b.N))
	b.ReportAllocs()
	b.ResetTimer()
	s.Run(0)
	s.Shutdown()
}
