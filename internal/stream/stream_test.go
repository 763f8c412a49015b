package stream

import (
	"bytes"
	"container/heap"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// wireEvent is a scheduled delivery or timer check in the test harness.
type wireEvent struct {
	at  time.Duration
	seq int
	fn  func(now time.Duration)
}

type wireHeap []wireEvent

func (h wireHeap) Len() int { return len(h) }
func (h wireHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h wireHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *wireHeap) Push(x interface{}) { *h = append(*h, x.(wireEvent)) }
func (h *wireHeap) Pop() interface{} {
	old := *h
	ev := old[len(old)-1]
	*h = old[:len(old)-1]
	return ev
}

// harness runs two sans-io conns over a simulated wire.
type harness struct {
	a, b    *Conn
	now     time.Duration
	events  wireHeap
	seq     int
	latency time.Duration
	loss    float64
	reorder time.Duration // random extra delay up to this
	rng     *rand.Rand
}

func newHarness(latency time.Duration, loss float64) *harness {
	h := &harness{
		a:       New(Config{}, 1000),
		b:       New(Config{}, 5000),
		latency: latency,
		loss:    loss,
		rng:     rand.New(rand.NewSource(7)),
	}
	return h
}

func (h *harness) at(d time.Duration, fn func(now time.Duration)) {
	h.seq++
	heap.Push(&h.events, wireEvent{at: h.now + d, seq: h.seq, fn: fn})
}

// pump flushes output of both conns onto the wire and rearms timers. Poll
// lends its segments, so each is marshaled before the next call on the
// conn and parsed again on delivery, as the real drivers do.
func (h *harness) pump() {
	for _, pair := range []struct{ from, to *Conn }{{h.a, h.b}, {h.b, h.a}} {
		from, to := pair.from, pair.to
		segs, deadline := from.Poll(h.now)
		for _, seg := range segs {
			if h.rng.Float64() < h.loss {
				continue
			}
			d := h.latency
			if h.reorder > 0 {
				d += time.Duration(h.rng.Int63n(int64(h.reorder)))
			}
			wire := seg.Marshal()
			h.at(d, func(now time.Duration) {
				seg, err := ParseSegment(wire)
				if err != nil {
					panic(err)
				}
				to.OnSegment(seg, now)
				h.pump()
			})
		}
		if deadline > 0 {
			conn := from
			h.at(deadline-h.now, func(now time.Duration) {
				conn.OnTimer(now)
				h.pump()
			})
		}
	}
}

// run processes events until quiescent or the horizon passes.
func (h *harness) run(horizon time.Duration) {
	for len(h.events) > 0 {
		ev := heap.Pop(&h.events).(wireEvent)
		if ev.at > horizon {
			h.now = horizon
			return
		}
		h.now = ev.at
		ev.fn(h.now)
	}
}

func (h *harness) connect(t testing.TB) {
	t.Helper()
	h.a.Open(h.now)
	h.pump()
	h.run(10 * time.Second)
	if !h.a.Established() || !h.b.Established() {
		t.Fatalf("handshake failed: a=%v b=%v", h.a.State(), h.b.State())
	}
}

func TestHandshake(t *testing.T) {
	h := newHarness(time.Millisecond, 0)
	h.connect(t)
	if h.a.State() != StateEstablished || h.b.State() != StateEstablished {
		t.Fatalf("states a=%v b=%v", h.a.State(), h.b.State())
	}
}

// transfer writes data on from, reads on to (draining as it goes), and
// returns what arrived.
func (h *harness) transfer(t *testing.T, from, to *Conn, data []byte, horizon time.Duration) []byte {
	if t != nil {
		t.Helper()
	}
	var got []byte
	written := 0
	buf := make([]byte, 4096)
	step := func() {
		for {
			n, _ := to.Read(buf)
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
		if written < len(data) {
			n, err := from.Write(data[written:])
			if err != nil {
				if t != nil {
					t.Fatalf("write: %v", err)
				}
				return
			}
			written += n
		}
	}
	// Drive: re-run step whenever the wire quiesces, up to horizon.
	deadline := h.now + horizon
	for h.now < deadline {
		step()
		h.pump()
		if len(h.events) == 0 {
			step()
			h.pump()
			if len(h.events) == 0 {
				break
			}
		}
		ev := heap.Pop(&h.events).(wireEvent)
		h.now = ev.at
		ev.fn(h.now)
	}
	step()
	return got
}

func TestBulkTransfer(t *testing.T) {
	h := newHarness(time.Millisecond, 0)
	h.connect(t)
	data := make([]byte, 500_000)
	rand.New(rand.NewSource(3)).Read(data)
	got := h.transfer(t, h.a, h.b, data, time.Minute)
	if !bytes.Equal(got, data) {
		t.Fatalf("transfer mismatch: got %d bytes, want %d", len(got), len(data))
	}
}

func TestTransferUnderLoss(t *testing.T) {
	h := newHarness(2*time.Millisecond, 0.05)
	h.connect(t)
	data := make([]byte, 200_000)
	rand.New(rand.NewSource(4)).Read(data)
	got := h.transfer(t, h.a, h.b, data, 5*time.Minute)
	if !bytes.Equal(got, data) {
		t.Fatalf("lossy transfer mismatch: got %d bytes, want %d", len(got), len(data))
	}
	if h.a.Retransmits == 0 && h.a.FastRetransmits == 0 {
		t.Fatal("expected retransmissions under 5% loss")
	}
}

func TestKarnFastRetransmitDiscardsRTTSample(t *testing.T) {
	// Karn's algorithm: after a retransmission, an ACK covering the timed
	// sequence is ambiguous (original or retransmit?) and must not be
	// sampled. The RTO path always cleared the measurement; the fast
	// retransmit path did not, feeding bogus samples to the estimator.
	h := newHarness(time.Millisecond, 0)
	h.connect(t)
	a := h.a
	data := make([]byte, 5*a.cfg.MSS)
	if _, err := a.Write(data); err != nil {
		t.Fatal(err)
	}
	segs, _ := a.Poll(h.now)
	if len(segs) < 4 {
		t.Fatalf("want ≥4 segments in flight, got %d", len(segs))
	}
	if !a.rttTiming {
		t.Fatal("no RTT measurement armed after packetize")
	}
	srttBefore := a.srtt

	// First segment "lost": three duplicate ACKs at sndUna trigger fast
	// retransmit of the timed segment.
	dup := Segment{Flags: FlagACK, Ack: a.sndUna, Window: 65535}
	for i := 0; i < 3; i++ {
		a.OnSegment(dup, h.now+time.Duration(i)*time.Millisecond)
	}
	if a.FastRetransmits != 1 {
		t.Fatalf("fast retransmits = %d, want 1", a.FastRetransmits)
	}
	if a.rttTiming {
		t.Fatal("Karn violation: RTT measurement still armed after fast retransmit")
	}

	// The cumulative ACK arrives suspiciously late — if it were sampled,
	// SRTT would jump to ~3s. It must be ignored.
	late := h.now + 3*time.Second
	a.OnSegment(Segment{Flags: FlagACK, Ack: a.sndNxt, Window: 65535}, late)
	if a.srtt != srttBefore {
		t.Fatalf("ambiguous ACK was sampled: srtt %v -> %v", srttBefore, a.srtt)
	}
}

// TestRetransmitViewSurvivesLaterAck: a retransmission is queued as a view
// of sndBuf inside OnSegment, and a cumulative ACK (and a Write) may move
// sndBuf on before the driver polls. What Poll then lends must still be
// the stream's bytes at that sequence.
func TestRetransmitViewSurvivesLaterAck(t *testing.T) {
	h := newHarness(time.Millisecond, 0)
	h.connect(t)
	a := h.a
	mss := a.cfg.MSS
	data := make([]byte, 8*mss)
	rand.New(rand.NewSource(11)).Read(data)
	base := a.sndNxt // sequence of data[0]
	if n, err := a.Write(data[:5*mss]); n != 5*mss || err != nil {
		t.Fatalf("write: %d %v", n, err)
	}
	if segs, _ := a.Poll(h.now); len(segs) != 5 {
		t.Fatalf("want 5 segments in flight, got %d", len(segs))
	}
	dup := Segment{Flags: FlagACK, Ack: base, Window: 65535}
	for i := 0; i < 3; i++ {
		a.OnSegment(dup, h.now)
	}
	if a.FastRetransmits != 1 {
		t.Fatalf("fast retransmits = %d, want 1", a.FastRetransmits)
	}
	// Before the driver polls: two segments are acknowledged after all,
	// and the application writes on.
	a.OnSegment(Segment{Flags: FlagACK, Ack: base + uint32(2*mss), Window: 65535}, h.now)
	if n, err := a.Write(data[5*mss:]); n != 3*mss || err != nil {
		t.Fatalf("write: %d %v", n, err)
	}
	segs, _ := a.Poll(h.now)
	sawRetransmit := false
	for _, seg := range segs {
		got, err := ParseSegment(seg.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Payload) == 0 {
			continue
		}
		off := int(got.Seq - base)
		if !bytes.Equal(got.Payload, data[off:off+len(got.Payload)]) {
			t.Fatalf("segment at stream offset %d (%d bytes) does not carry the stream's bytes", off, len(got.Payload))
		}
		sawRetransmit = sawRetransmit || (off == 0 && len(got.Payload) == mss)
	}
	if !sawRetransmit {
		t.Fatal("the fast retransmission did not come out of Poll")
	}
}

// TestAbortWhileRangingLentSegments: a driver that fails to send aborts the
// conn inside its loop over Poll's segments. The RST must not land in the
// slice being ranged, and must come out of the next Poll.
func TestAbortWhileRangingLentSegments(t *testing.T) {
	h := newHarness(time.Millisecond, 0)
	h.connect(t)
	a := h.a
	for i := 0; i < 2; i++ { // both backing slices in use
		a.Write(make([]byte, 3*a.cfg.MSS))
		a.Poll(h.now)
		a.OnSegment(Segment{Flags: FlagACK, Ack: a.sndNxt, Window: 65535}, h.now)
	}
	a.Write(make([]byte, 3*a.cfg.MSS))
	segs, _ := a.Poll(h.now)
	if len(segs) != 3 {
		t.Fatalf("want 3 segments, got %d", len(segs))
	}
	a.Abort()
	for i, seg := range segs {
		if seg.Flags&FlagRST != 0 || len(seg.Payload) != a.cfg.MSS {
			t.Fatalf("lent segment %d changed under the driver: %+v", i, seg)
		}
	}
	if next, _ := a.Poll(h.now); len(next) != 1 || next[0].Flags&FlagRST == 0 {
		t.Fatalf("next Poll = %+v, want the RST", next)
	}
}

// TestLendSurvivesSlide: a retransmission that OnTimer queues is a view of
// sndBuf until the next Poll. An ACK and Writes that fill and overrun the
// tail of sndBuf's array in between must not slide the live bytes over it.
func TestLendSurvivesSlide(t *testing.T) {
	h := newHarness(time.Millisecond, 0)
	h.connect(t)
	a := h.a
	mss := a.cfg.MSS
	data := make([]byte, 11*mss)
	rand.New(rand.NewSource(12)).Read(data)
	base := a.sndNxt // sequence of data[0]
	ack := func(n int) {
		a.OnSegment(Segment{Flags: FlagACK, Ack: base + uint32(n), Window: 65535}, h.now)
	}
	// Fill sndBuf's array to its end with the start two segments in:
	// 4 segments make an 8-segment array, 2 are acknowledged, 4 more go
	// out, so the live bytes are data[2*mss:8*mss] at the array's tail.
	a.Write(data[:4*mss])
	a.Poll(h.now)
	ack(2 * mss)
	a.Write(data[4*mss : 8*mss])
	_, deadline := a.Poll(h.now)
	a.OnTimer(deadline) // queues data[2*mss:3*mss] again, a view of the array
	if a.Retransmits != 1 {
		t.Fatalf("retransmits = %d, want 1", a.Retransmits)
	}
	// Everything is acknowledged before the driver polls, and 3 segments
	// written now fit in half the array: without the queued view they
	// would slide to its front, over the retransmission's bytes.
	ack(8 * mss)
	a.Write(data[8*mss:])
	segs, _ := a.Poll(h.now)
	if len(segs) == 0 || segs[0].Seq != base+uint32(2*mss) {
		t.Fatalf("first polled segment %+v, want the retransmission at offset %d", segs, 2*mss)
	}
	if !bytes.Equal(segs[0].Payload, data[2*mss:3*mss]) {
		t.Fatal("the queued retransmission no longer carries the bytes it was cut from")
	}
}

// lockstep joins two established conns in memory and moves a bulk
// transfer through them in rounds, as a driver would but with no clock,
// queue or closure of its own, so that a round allocates only what the
// conns do.
type lockstep struct {
	a, b       *Conn
	chunk, buf []byte
	units      [][]byte // reused wire units, one per segment of a round
	moved      int      // bytes read on b
}

func newLockstep(tb testing.TB) *lockstep {
	h := newHarness(time.Millisecond, 0)
	h.connect(tb)
	l := &lockstep{a: h.a, b: h.b, chunk: make([]byte, 16<<10), buf: make([]byte, 16<<10)}
	for i := 0; i < 128; i++ {
		l.units = append(l.units, make([]byte, HeaderSize+h.a.cfg.MSS))
	}
	return l
}

// round writes until a's send buffer refuses, carries what a polls to b,
// reads b dry and carries b's ACKs back to a. Each segment is marshaled
// before the next call on its conn and parsed again on delivery. m, when
// set, charges the allocations of a's calls to send and b's to recv.
func (l *lockstep) round(m *allocMeter) {
	for {
		if n, _ := l.a.Write(l.chunk); n < len(l.chunk) {
			break
		}
	}
	units := l.poll(l.a)
	m.lap(false)
	l.deliver(units, l.b)
	for {
		n, _ := l.b.Read(l.buf)
		if n == 0 {
			break
		}
		l.moved += n
	}
	units = l.poll(l.b)
	m.lap(true)
	l.deliver(units, l.a)
	m.lap(false)
}

func (l *lockstep) poll(c *Conn) [][]byte {
	segs, _ := c.Poll(0)
	units := l.units[:len(segs)]
	for i, seg := range segs {
		units[i] = units[i][:HeaderSize+len(seg.Payload)]
		seg.MarshalInto(units[i])
	}
	return units
}

func (l *lockstep) deliver(units [][]byte, to *Conn) {
	for _, u := range units {
		seg, err := ParseSegment(u)
		if err != nil {
			panic(err)
		}
		to.OnSegment(seg, 0)
	}
}

// allocMeter splits the process's heap allocation, in bytes, between the
// two ends of a lockstep. A nil meter charges nothing.
type allocMeter struct {
	ms               runtime.MemStats
	last, send, recv uint64
}

// newAllocMeter starts metering. The meter reads the process-wide
// TotalAlloc, and each ReadMemStats stops the world: restarting it may
// start an OS thread to run an idle P, and that thread's runtime structures
// (about 5 KiB) count as allocated bytes. With one P there is no idle P to
// run, so newAllocMeter pins GOMAXPROCS to 1, as testing.AllocsPerRun
// does, until the test ends.
func newAllocMeter(t *testing.T) *allocMeter {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	m := &allocMeter{}
	runtime.ReadMemStats(&m.ms)
	m.last = m.ms.TotalAlloc
	return m
}

// lap charges the bytes allocated since the previous lap to recv or send.
func (m *allocMeter) lap(recv bool) {
	if m == nil {
		return
	}
	runtime.ReadMemStats(&m.ms)
	if recv {
		m.recv += m.ms.TotalAlloc - m.last
	} else {
		m.send += m.ms.TotalAlloc - m.last
	}
	m.last = m.ms.TotalAlloc
}

// TestWritePollMarshalAllocatesNothing pins the lending and sliding
// contracts in bytes: once the buffers have grown, a bulk transfer with a
// full send buffer allocates nothing from Write to wire unit and back
// through the ACK (Poll lends views of sndBuf in a reused slice, and
// sndBuf slides in its array), and nothing from OnSegment to Read (rcvBuf
// slides too). It also bounds what the sliding arrays may grow to.
func TestWritePollMarshalAllocatesNothing(t *testing.T) {
	l := newLockstep(t)
	for l.moved < 1<<20 { // warm-up: the buffers reach their size
		l.round(nil)
	}
	const total = 8 << 20
	start := l.moved
	m := newAllocMeter(t)
	for l.moved-start < total {
		l.round(m)
	}
	if m.send != 0 || m.recv != 0 {
		t.Errorf("%d MiB moved: Write/Poll/MarshalInto/ACK allocated %d B, OnSegment/Read/Poll %d B; want 0 and 0",
			total>>20, m.send, m.recv)
	}
	if c := cap(l.a.sndArr); c > 2*l.a.cfg.SendBuf {
		t.Errorf("sndBuf's array holds %d B, want at most twice SendBuf (%d)", c, l.a.cfg.SendBuf)
	}
	if c := cap(l.b.rcvArr); c > 2*l.b.cfg.Window {
		t.Errorf("rcvBuf's array holds %d B, want at most twice Window (%d)", c, l.b.cfg.Window)
	}
}

// TestEchoConnKeepsSmallArrays: a conn that only ever holds 64 bytes each
// way keeps buffer arrays of a few hundred bytes, not of its configured
// bounds (a responder keeps a thousand such conns).
func TestEchoConnKeepsSmallArrays(t *testing.T) {
	h := newHarness(time.Millisecond, 0)
	h.connect(t)
	msg := bytes.Repeat([]byte{'e'}, 64)
	for i := 0; i < 200; i++ {
		if got := h.transfer(t, h.a, h.b, msg, time.Second); !bytes.Equal(got, msg) {
			t.Fatalf("request %d: got %q", i, got)
		}
		if got := h.transfer(t, h.b, h.a, msg, time.Second); !bytes.Equal(got, msg) {
			t.Fatalf("echo %d: got %q", i, got)
		}
	}
	for _, c := range []*Conn{h.a, h.b} {
		if held := cap(c.sndArr) + cap(c.rcvArr); held > 4096 {
			t.Errorf("a 64-byte echo conn holds %d B of buffer arrays, want at most 4096", held)
		}
	}
}

func TestRTOConvergesUnderLoss(t *testing.T) {
	// On a 2ms lossy link the RTT estimator must converge to the real
	// ~4ms RTT instead of drifting on ambiguous retransmission samples;
	// a poisoned estimator shows up as a wildly inflated SRTT/RTO.
	h := newHarness(2*time.Millisecond, 0.08)
	h.connect(t)
	data := make([]byte, 120_000)
	rand.New(rand.NewSource(9)).Read(data)
	got := h.transfer(t, h.a, h.b, data, 5*time.Minute)
	if !bytes.Equal(got, data) {
		t.Fatalf("lossy transfer mismatch: got %d bytes, want %d", len(got), len(data))
	}
	if h.a.Retransmits == 0 && h.a.FastRetransmits == 0 {
		t.Fatal("expected retransmissions under 8% loss")
	}
	if h.a.SRTT() > 20*time.Millisecond {
		t.Errorf("SRTT = %v did not converge near the 4ms path RTT", h.a.SRTT())
	}
	// One clean exchange collapses any in-progress timeout backoff; the
	// recomputed RTO must then sit near srtt+4·rttvar, not seconds out.
	h.loss = 0
	clean := h.transfer(t, h.a, h.b, []byte("resample"), time.Minute)
	if string(clean) != "resample" {
		t.Fatalf("clean resample transfer got %q", clean)
	}
	if h.a.rto > 200*time.Millisecond {
		t.Errorf("RTO = %v after resample, want near the 4ms path RTT", h.a.rto)
	}
}

func TestTransferWithReordering(t *testing.T) {
	h := newHarness(time.Millisecond, 0)
	h.reorder = 3 * time.Millisecond
	h.connect(t)
	data := make([]byte, 100_000)
	rand.New(rand.NewSource(5)).Read(data)
	got := h.transfer(t, h.a, h.b, data, time.Minute)
	if !bytes.Equal(got, data) {
		t.Fatalf("reordered transfer mismatch: got %d bytes, want %d", len(got), len(data))
	}
}

func TestBidirectional(t *testing.T) {
	h := newHarness(time.Millisecond, 0)
	h.connect(t)
	dataAB := bytes.Repeat([]byte("ab"), 20_000)
	dataBA := bytes.Repeat([]byte("ba"), 20_000)
	h.a.Write(dataAB)
	h.b.Write(dataBA)
	var gotB, gotA []byte
	buf := make([]byte, 4096)
	h.pump()
	for i := 0; i < 200_000 && len(h.events) > 0; i++ {
		ev := heap.Pop(&h.events).(wireEvent)
		h.now = ev.at
		ev.fn(h.now)
		for {
			n, _ := h.b.Read(buf)
			if n == 0 {
				break
			}
			gotB = append(gotB, buf[:n]...)
		}
		for {
			n, _ := h.a.Read(buf)
			if n == 0 {
				break
			}
			gotA = append(gotA, buf[:n]...)
		}
		h.pump()
	}
	if !bytes.Equal(gotB, dataAB) || !bytes.Equal(gotA, dataBA) {
		t.Fatalf("bidirectional mismatch: b got %d/%d, a got %d/%d",
			len(gotB), len(dataAB), len(gotA), len(dataBA))
	}
}

func TestCloseDeliversEOF(t *testing.T) {
	h := newHarness(time.Millisecond, 0)
	h.connect(t)
	h.a.Write([]byte("final words"))
	h.a.Close()
	h.pump()
	h.run(10 * time.Second)
	buf := make([]byte, 64)
	n, err := h.b.Read(buf)
	if err != nil || string(buf[:n]) != "final words" {
		t.Fatalf("read = %q, %v", buf[:n], err)
	}
	if _, err := h.b.Read(buf); err != ErrEOF {
		t.Fatalf("err = %v, want ErrEOF", err)
	}
	// Close the other side too; both should reach Closed.
	h.b.Close()
	h.pump()
	h.run(20 * time.Second)
	if h.a.State() != StateClosed || h.b.State() != StateClosed {
		t.Fatalf("states after close: a=%v b=%v", h.a.State(), h.b.State())
	}
}

func TestAbortResetsPeer(t *testing.T) {
	h := newHarness(time.Millisecond, 0)
	h.connect(t)
	h.a.Abort()
	h.pump()
	h.run(time.Second)
	if h.b.State() != StateReset {
		t.Fatalf("peer state = %v, want reset", h.b.State())
	}
	if _, err := h.b.Read(make([]byte, 1)); err != ErrReset {
		t.Fatalf("read err = %v, want ErrReset", err)
	}
	if _, err := h.b.Write([]byte("x")); err != ErrReset {
		t.Fatalf("write err = %v, want ErrReset", err)
	}
}

func TestWindowLimitsInFlight(t *testing.T) {
	cfgSmall := Config{Window: 4096, MSS: 1024}
	a := New(cfgSmall, 1)
	b := New(cfgSmall, 2)
	h := &harness{a: a, b: b, latency: 50 * time.Millisecond, rng: rand.New(rand.NewSource(1))}
	h.connect(t)
	a.Write(make([]byte, 64*1024))
	segs, _ := a.Poll(h.now)
	var payload int
	for _, s := range segs {
		payload += len(s.Payload)
	}
	if payload > 4096 {
		t.Fatalf("in flight %d bytes exceeds 4096 window", payload)
	}
}

func TestSegmentMarshalRoundTrip(t *testing.T) {
	in := Segment{Flags: FlagACK | FlagFIN, Seq: 0xdeadbeef, Ack: 0x01020304, Window: 87381, Payload: []byte("payload")}
	out, err := ParseSegment(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if out.Flags != in.Flags || out.Seq != in.Seq || out.Ack != in.Ack || out.Window != in.Window || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("round trip mismatch: %+v != %+v", out, in)
	}
	if _, err := ParseSegment(make([]byte, HeaderSize-1)); err == nil {
		t.Fatal("short segment parsed")
	}
}

// TestCoalesceACKs: a pure ACK goes only when the segment right after it is
// a pure ACK with a later Ack; duplicate ACKs and every segment that is not
// a pure ACK stay, in order, and coalescing allocates nothing.
func TestCoalesceACKs(t *testing.T) {
	seg := func(flags uint8, ack uint32, payload string) Segment {
		var p []byte
		if payload != "" {
			p = []byte(payload)
		}
		return Segment{Flags: flags, Seq: 9, Ack: ack, Window: 1000, Payload: p}
	}
	ack := func(n uint32) Segment { return seg(FlagACK, n, "") }
	mixed := []Segment{ack(1), seg(FlagSYN|FlagACK, 2, ""), ack(3), seg(FlagFIN|FlagACK, 4, ""), ack(5),
		seg(FlagRST, 0, ""), ack(6), seg(FlagACK, 7, "data"), ack(8)}
	for _, tc := range []struct {
		name    string
		in, out []Segment
	}{
		{"empty", nil, nil},
		{"one ACK", []Segment{ack(1)}, []Segment{ack(1)}},
		{"in-order run keeps the last", []Segment{ack(1), ack(2), ack(3), ack(4)}, []Segment{ack(4)}},
		{"dup ACKs all stay", []Segment{ack(5), ack(5), ack(5)}, []Segment{ack(5), ack(5), ack(5)}},
		{"only the dup before the new Ack goes", []Segment{ack(5), ack(5), ack(5), ack(5), ack(6)},
			[]Segment{ack(5), ack(5), ack(5), ack(6)}},
		{"an earlier Ack after a later one stays", []Segment{ack(6), ack(5)}, []Segment{ack(6), ack(5)}},
		{"later across wraparound", []Segment{ack(1<<32 - 16), ack(16)}, []Segment{ack(16)}},
		{"SYN/ACK, FIN, RST and data pass untouched", mixed, mixed},
	} {
		got := CoalesceACKs(append([]Segment(nil), tc.in...))
		if len(got) != len(tc.out) || (len(got) > 0 && !reflect.DeepEqual(got, tc.out)) {
			t.Errorf("%s: CoalesceACKs(%v) = %v, want %v", tc.name, tc.in, got, tc.out)
		}
	}
	buf := make([]Segment, len(mixed)+4)
	run := append([]Segment{ack(1), ack(2), ack(2), ack(3)}, mixed...)
	if allocs := testing.AllocsPerRun(100, func() { CoalesceACKs(buf[:copy(buf, run)]) }); allocs != 0 {
		t.Errorf("CoalesceACKs allocated %.0f times per call, want 0", allocs)
	}
}

func TestSeqCompareWraparound(t *testing.T) {
	if !seqLT(0xfffffff0, 0x10) {
		t.Fatal("seqLT should handle wraparound")
	}
	if seqLT(0x10, 0xfffffff0) {
		t.Fatal("seqLT inverted at wraparound")
	}
	if !seqLE(5, 5) {
		t.Fatal("seqLE should be reflexive")
	}
}

func TestRTTEstimator(t *testing.T) {
	c := New(Config{}, 0)
	c.updateRTT(100 * time.Millisecond)
	if c.srtt != 100*time.Millisecond {
		t.Fatalf("first srtt = %v", c.srtt)
	}
	c.updateRTT(200 * time.Millisecond)
	if c.srtt <= 100*time.Millisecond || c.srtt >= 200*time.Millisecond {
		t.Fatalf("smoothed srtt = %v, want between samples", c.srtt)
	}
	if c.rto < MinRTO {
		t.Fatalf("rto below floor: %v", c.rto)
	}
}

func TestRetransmitAfterTotalBlackout(t *testing.T) {
	h := newHarness(time.Millisecond, 1.0) // everything dropped
	h.a.Open(h.now)
	h.pump()
	h.run(5 * time.Minute)
	if h.a.State() != StateReset {
		t.Fatalf("state = %v, want reset after max retries", h.a.State())
	}
	if h.a.retries <= 3 {
		t.Fatalf("retries = %d, expected many", h.a.retries)
	}
}

func TestTransferPropertyRandomSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		size := 1 + rng.Intn(60_000)
		loss := float64(rng.Intn(8)) / 100
		h := newHarness(time.Duration(1+rng.Intn(5))*time.Millisecond, loss)
		h.connect(t)
		data := make([]byte, size)
		rng.Read(data)
		got := h.transfer(t, h.a, h.b, data, 10*time.Minute)
		if !bytes.Equal(got, data) {
			t.Fatalf("trial %d (size=%d loss=%.2f): mismatch got %d bytes", trial, size, loss, len(got))
		}
	}
}

func TestCongestionSlowStartGrowth(t *testing.T) {
	h := newHarness(time.Millisecond, 0)
	h.connect(t)
	initial := h.a.Cwnd()
	data := make([]byte, 200_000)
	got := h.transfer(t, h.a, h.b, data, time.Minute)
	if len(got) != len(data) {
		t.Fatalf("transfer incomplete: %d", len(got))
	}
	if h.a.Cwnd() <= initial {
		t.Fatalf("cwnd did not grow: %d -> %d", initial, h.a.Cwnd())
	}
}

func TestCongestionBackoffOnLoss(t *testing.T) {
	h := newHarness(2*time.Millisecond, 0)
	h.connect(t)
	// Grow the window with a clean transfer first.
	h.transfer(t, h.a, h.b, make([]byte, 300_000), time.Minute)
	grown := h.a.Cwnd()
	// Then introduce loss: the window must come down.
	h.loss = 0.08
	h.transfer(t, h.a, h.b, make([]byte, 300_000), 5*time.Minute)
	if h.a.Cwnd() >= grown {
		t.Fatalf("cwnd did not back off under loss: %d -> %d", grown, h.a.Cwnd())
	}
	if h.a.Retransmits == 0 && h.a.FastRetransmits == 0 {
		t.Fatal("no retransmissions recorded under loss")
	}
}

func TestCongestionWindowBoundsInFlight(t *testing.T) {
	a := New(Config{Window: 1 << 20, SendBuf: 1 << 20, MSS: 1000}, 1)
	b := New(Config{Window: 1 << 20, SendBuf: 1 << 20, MSS: 1000}, 2)
	h := &harness{a: a, b: b, latency: 50 * time.Millisecond, rng: rand.New(rand.NewSource(1))}
	h.connect(t)
	a.Write(make([]byte, 1<<20))
	segs, _ := a.Poll(h.now)
	var inflight int
	for _, s := range segs {
		inflight += len(s.Payload)
	}
	if inflight > a.Cwnd() {
		t.Fatalf("in flight %d exceeds cwnd %d", inflight, a.Cwnd())
	}
}

// BenchmarkLockstepBulk moves a bulk transfer with a full send buffer
// through two conns in memory (newLockstep), a MiB an op, after the
// buffers have grown: the stream's own cost per byte from Write to Read,
// and its allocations (0 B/op).
func BenchmarkLockstepBulk(b *testing.B) {
	l := newLockstep(b)
	for l.moved < 1<<20 {
		l.round(nil)
	}
	b.SetBytes(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for end := l.moved + 1<<20; l.moved < end; {
			l.round(nil)
		}
	}
}

func BenchmarkSansIOTransfer(b *testing.B) {
	// End-to-end sans-io throughput: how fast the harness can move bytes
	// through two connected state machines (no real network).
	data := make([]byte, 1<<20)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		h := &harness{a: New(Config{}, 1), b: New(Config{}, 2), latency: 100 * time.Microsecond, rng: rand.New(rand.NewSource(1))}
		h.a.Open(h.now)
		h.pump()
		h.run(10 * time.Second)
		if !h.a.Established() {
			b.Fatal("handshake failed")
		}
		got := h.transfer(nil, h.a, h.b, data, time.Minute)
		if len(got) != len(data) {
			b.Fatalf("moved %d of %d", len(got), len(data))
		}
	}
}
