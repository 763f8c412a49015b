package hip

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"hipcloud/internal/identity"
)

// herd builds n hosts that all Connect to the same unreachable peer at
// t=0 (every I1 vanishes), then steps virtual time in fine increments
// recording the time of each host's retransmissions and its failure time.
// Host i's Config.Rand is seed(i) (nil: its identity seeds it), and
// afterConnect, when non-nil, runs on each host once its I1 is out.
func herd(t *testing.T, n int, seed func(i int) io.Reader, afterConnect func(*Host)) (times [][]time.Duration, failAt []time.Duration) {
	t.Helper()
	hosts := make([]*Host, n)
	for i := range hosts {
		id := identity.MustGenerateDeterministic(identity.AlgECDSA, fmt.Sprintf("herd/%d", i))
		h, err := NewHost(Config{
			Identity: id,
			Locator:  netip.AddrFrom4([4]byte{10, 1, 0, byte(i + 1)}),
			Rand:     seed(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Connect(idB.HIT(), locB, 0); err != nil {
			t.Fatal(err)
		}
		h.Outgoing() // discard the initial I1
		if afterConnect != nil {
			afterConnect(h)
		}
		hosts[i] = h
	}
	times = make([][]time.Duration, n)
	failAt = make([]time.Duration, n)
	const step = 10 * time.Millisecond
	for now := step; now <= 20*time.Second; now += step {
		done := true
		for i, h := range hosts {
			if failAt[i] != 0 {
				continue
			}
			done = false
			before := h.Retransmits
			h.OnTimer(now)
			h.Outgoing()
			if h.Retransmits > before {
				times[i] = append(times[i], now)
			}
			for _, ev := range h.Events() {
				if ev.Kind == EventFailed {
					failAt[i] = now
				}
			}
		}
		if done {
			break
		}
	}
	return times, failAt
}

// TestRetransmitLockstepWithoutJitter documents the herd amplifier the
// jitter removes: synchronized peers whose jitter streams are identical
// (every host seeded with the same 32 bytes) share byte-identical
// retransmission schedules, so a burst that causes loss re-collides on
// every retry.
func TestRetransmitLockstepWithoutJitter(t *testing.T) {
	times, _ := herd(t, 4, func(int) io.Reader { return bytes.NewReader(make([]byte, 32)) }, nil)
	for i := 1; i < len(times); i++ {
		if len(times[i]) != len(times[0]) {
			t.Fatalf("host %d made %d retransmits, host 0 made %d", i, len(times[i]), len(times[0]))
		}
		for j := range times[i] {
			if times[i][j] != times[0][j] {
				t.Fatalf("no-jitter hosts diverged: host %d retry %d at %v, host 0 at %v",
					i, j, times[i][j], times[0][j])
			}
		}
	}
}

// TestJitterDecorrelatesRetransmits: N peers synchronized at t=0, each
// drawing jitter from the stream its own identity seeds, spread their
// retries apart instead of re-colliding, and every one of them still
// fails within the 16×base give-up budget (the invariant the jitter clamp
// protects).
func TestJitterDecorrelatesRetransmits(t *testing.T) {
	const n = 8
	times, failAt := herd(t, n, func(int) io.Reader { return nil }, nil)

	// Each retry round must spread across distinct times: with ±50%
	// jitter over a ≥250ms window and 10ms observation steps, eight
	// peers landing on one tick would mean the jitter isn't wired.
	for round := 0; round < 4; round++ {
		distinct := map[time.Duration]bool{}
		for i := 0; i < n; i++ {
			if round >= len(times[i]) {
				t.Fatalf("host %d made only %d retransmits", i, len(times[i]))
			}
			distinct[times[i][round]] = true
		}
		if len(distinct) < n/2 {
			t.Fatalf("round %d: only %d distinct retry times across %d peers: %v",
				round, len(distinct), n, times)
		}
	}

	// Give-up stays inside the cumulative budget regardless of draws.
	base := 500 * time.Millisecond
	limit := 16*base + 10*time.Millisecond // +1 observation step
	for i, at := range failAt {
		if at == 0 {
			t.Fatalf("host %d never failed", i)
		}
		if at > limit {
			t.Fatalf("host %d gave up at %v, past the 16×base budget %v", i, at, limit)
		}
	}
}

// maxSource makes every Float64 draw of a math/rand Rand its largest
// value below 1 (1<<63 - 1024 is the largest Int63 whose float64 is
// below 2^63).
type maxSource struct{}

func (maxSource) Int63() int64 { return 1<<63 - 1024 }
func (maxSource) Seed(int64)   {}

// TestJitterWorstCaseRespectsDeadline pins the clamp: a jitter stream
// that always draws the maximum would stretch cumulative backoff to
// ~23.5×base without the absolute deadline recorded at arm time. The
// stream is swapped in after Connect, so the exchange's own draws come
// from the host's real stream and only the retries are worst-case.
func TestJitterWorstCaseRespectsDeadline(t *testing.T) {
	times, failAt := herd(t, 1, func(int) io.Reader { return nil }, func(h *Host) { h.rng = rand.New(maxSource{}) })
	base := 500 * time.Millisecond
	limit := 16*base + 10*time.Millisecond
	if failAt[0] == 0 || failAt[0] > limit {
		t.Fatalf("worst-case jitter gave up at %v (retries %v), want ≤ %v", failAt[0], times[0], limit)
	}
}

func TestAdmissionQueueFIFOAndGrowth(t *testing.T) {
	q := NewAdmissionQueue(0) // unbounded
	for i := 0; i < 100; i++ {
		if shed := q.Push(Pending{Data: []byte{byte(i)}}); shed {
			t.Fatalf("unbounded queue shed at %d", i)
		}
	}
	if q.Len() != 100 {
		t.Fatalf("Len = %d", q.Len())
	}
	for i := 0; i < 100; i++ {
		p, ok := q.Pop()
		if !ok || p.Data[0] != byte(i) {
			t.Fatalf("pop %d: ok=%v data=%v", i, ok, p.Data)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop from empty succeeded")
	}
}

func TestAdmissionQueueDropOldest(t *testing.T) {
	q := NewAdmissionQueue(4)
	for i := 0; i < 10; i++ {
		q.Push(Pending{Data: []byte{byte(i)}})
	}
	if q.Shed != 6 {
		t.Fatalf("Shed = %d, want 6", q.Shed)
	}
	if q.Len() != 4 {
		t.Fatalf("Len = %d, want 4", q.Len())
	}
	// Survivors are the newest four, in arrival order.
	for want := 6; want < 10; want++ {
		p, ok := q.Pop()
		if !ok || p.Data[0] != byte(want) {
			t.Fatalf("pop: ok=%v data=%v want=%d", ok, p.Data, want)
		}
	}
	// Interleaved push/pop keeps FIFO across the wrapped ring.
	for i := 0; i < 3; i++ {
		q.Push(Pending{Data: []byte{byte(100 + i)}})
	}
	if p, _ := q.Pop(); p.Data[0] != 100 {
		t.Fatalf("wrapped pop = %v", p.Data)
	}
	q.Push(Pending{Data: []byte{103}})
	for want := 101; want <= 103; want++ {
		p, ok := q.Pop()
		if !ok || p.Data[0] != byte(want) {
			t.Fatalf("wrapped pop: ok=%v data=%v want=%d", ok, p.Data, want)
		}
	}
}
