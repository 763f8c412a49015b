package hipudp

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"hipcloud/internal/keymat"
	"hipcloud/internal/netsim"
	"hipcloud/internal/stream"
)

// serveEcho accepts on l until it closes; each conn is echoed until the
// peer's FIN (or a reset) and then closed.
func serveEcho(l *Listener) {
	for {
		c, err := l.Accept()
		if err != nil {
			return
		}
		go func() {
			defer c.Close()
			buf := make([]byte, 256)
			for {
				n, err := c.Read(buf)
				if err != nil {
					return
				}
				if _, err := c.Write(buf[:n]); err != nil {
					return
				}
			}
		}()
	}
}

// dialEcho dials peer:port from s and checks one echo round trip.
func dialEcho(t *testing.T, s *Stack, peer netip.Addr, port uint16) *Conn {
	t.Helper()
	c, err := s.Dial(peer, port, 5*time.Second)
	if err != nil {
		t.Fatalf("dial port %d: %v", port, err)
	}
	msg := []byte("ping over esp")
	if _, err := c.Write(msg); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := make([]byte, len(msg))
	for n := 0; n < len(got); {
		rn, err := c.Read(got[n:])
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		n += rn
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echo = %q, want %q", got, msg)
	}
	return c
}

func connCount(s *Stack) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// TestClosedConnsAreForgotten is the regression test for conns staying in
// the stack's table forever: once both sides closed and the handshake
// finished, neither stack may still hold the entry.
func TestClosedConnsAreForgotten(t *testing.T) {
	a, b := pair(t)
	l, err := b.Listen(7)
	if err != nil {
		t.Fatal(err)
	}
	go serveEcho(l)
	for i := 0; i < 20; i++ {
		dialEcho(t, a, idB.HIT(), 7).Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for connCount(a) != 0 || connCount(b) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("conns left after 20 dial/echo/close cycles: dialer %d, listener %d",
				connCount(a), connCount(b))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestListenerCloseResetsItsBacklog: a conn that arrived but was never
// accepted is reset and forgotten when its listener closes, and the
// dialer's blocked Read fails instead of waiting forever.
func TestListenerCloseResetsItsBacklog(t *testing.T) {
	a, b := pair(t)
	l, err := b.Listen(7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := a.Dial(idB.HIT(), 7, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	readErr := make(chan error, 1)
	go func() {
		_, err := c.Read(make([]byte, 16))
		readErr <- err
	}()
	l.Close()
	if n := connCount(b); n != 0 {
		t.Fatalf("listener's stack still holds %d conns after Close", n)
	}
	select {
	case err := <-readErr:
		if err == nil {
			t.Fatal("dialer's Read returned data from a conn nobody accepted")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("dialer's Read still blocked 5 s after the listener closed")
	}
}

// TestDialPortsStayEphemeral is the regression test for Dial's uint16
// port counter wrapping through 0 and the listener range: ports must stay
// in the ephemeral range and off live conns, so a low-port listener on
// the dialing stack keeps receiving its SYNs.
func TestDialPortsStayEphemeral(t *testing.T) {
	a, b := pair(t)
	la, err := a.Listen(1)
	if err != nil {
		t.Fatal(err)
	}
	go serveEcho(la)
	lb, err := b.Listen(7)
	if err != nil {
		t.Fatal(err)
	}
	go serveEcho(lb)

	a.mu.Lock()
	a.nextPort = 65534
	a.mu.Unlock()
	seen := make(map[uint16]bool)
	for i := 0; i < 3; i++ {
		c := dialEcho(t, a, idB.HIT(), 7)
		defer c.Close()
		p := c.key.localPort
		if p < ephemeralBase || seen[p] {
			t.Fatalf("dial %d got local port %d (seen %v), want a fresh port >= %d", i, p, seen, ephemeralBase)
		}
		seen[p] = true
	}
	dialEcho(t, b, idA.HIT(), 1).Close()
}

// TestCloseIsNotCountedAsLoss is the regression test for work done after
// Stack.Close landing on the stopped sender as TxDrops: closing the
// stacks under live conns, and the conns after them (the order deferred
// Closes produce), must leave the counter at zero.
func TestCloseIsNotCountedAsLoss(t *testing.T) {
	for i := 0; i < 50; i++ {
		a, b := pair(t)
		l, err := b.Listen(7)
		if err != nil {
			t.Fatal(err)
		}
		go serveEcho(l)
		c := dialEcho(t, a, idB.HIT(), 7)
		a.Close()
		b.Close()
		c.Close()
		if da, db := a.Stats().TxDrops, b.Stats().TxDrops; da != 0 || db != 0 {
			t.Fatalf("cycle %d: TxDrops dialer=%d listener=%d, want 0", i, da, db)
		}
	}
}

// TestStackCloseWipesKeys is the regression test for Stack.Close leaving
// every association's keys on the heap: after a base exchange, a bulk echo
// and Close on both stacks, keymat's key ledger is back where it started.
// So is netsim's pool ledger: every frame a stack sends is a pooled buffer
// that its sender returns once the frame is on the wire.
func TestStackCloseWipesKeys(t *testing.T) {
	keys, bufs := len(keymat.KeysOutstanding()), netsim.PoolOutstanding()
	a, b := pair(t)
	echoBytes(t, a, b, 256<<10)
	a.Close()
	b.Close()
	if left := keymat.KeysOutstanding(); len(left) != keys {
		t.Errorf("%d keys left unwiped after Close, created at %q", len(left)-keys, left[min(keys, len(left)):])
	}
	if n := netsim.PoolOutstanding() - bufs; n != 0 {
		t.Errorf("%d pooled frames outstanding after Close", n)
	}
	if sa, sb := a.Stats(), b.Stats(); sa.TxPackets < 200 || sb.TxPackets < 200 {
		t.Fatalf("sent %d and %d frames, want a few hundred each way", sa.TxPackets, sb.TxPackets)
	}
}

// TestQueueOverflowReturnsTheFrame: a frame dropped at txQueueCap goes
// back to the pool at once, and the queued ones stay out until sent.
func TestQueueOverflowReturnsTheFrame(t *testing.T) {
	s := newTestStack(t, idA)
	// Stop the sender, then let the queue take frames again: nothing drains
	// it now.
	s.sender.close()
	s.sender.mu.Lock()
	s.sender.closed = false
	s.sender.mu.Unlock()
	bufs := netsim.PoolOutstanding()
	ep := netip.MustParseAddrPort("127.0.0.1:9")
	for range txQueueCap {
		s.writeFrame(frameESP, ep, []byte("queued"))
	}
	if n := netsim.PoolOutstanding() - bufs; n != txQueueCap {
		t.Fatalf("%d pooled frames outstanding with a full queue, want %d", n, txQueueCap)
	}
	s.writeFrame(frameESP, ep, []byte("dropped"))
	if d := s.Stats().TxDrops; d != 1 {
		t.Fatalf("TxDrops = %d, want 1", d)
	}
	if n := netsim.PoolOutstanding() - bufs; n != txQueueCap {
		t.Errorf("%d pooled frames outstanding after the drop, want %d: the dropped frame was not returned", n, txQueueCap)
	}
	s.sender.mu.Lock()
	for _, p := range s.sender.queue {
		netsim.PutBuf(p.buf)
	}
	s.sender.queue = nil
	s.sender.mu.Unlock()
}

// poolSlack is the allocations per run that the allocation tests forgive
// the pool: 0, except under the race detector (race_test.go).
var poolSlack float64

// TestPumpAllocsPerSegment pins the transmit path's allocation count at 0.
// Per segment written and pumped, stream lends its payload and its Poll
// slice, pumpLocked seals its headers and that payload into a pooled frame,
// and the sender returns the frame after its sendmmsg, whose RawConn.Write
// callback the engine bound once. AllocsPerRun counts the whole process, so
// each run waits until the sender has sent its frame: the sender's share is
// in the count, and the next run's frame is the pool's. Warm-up runs first
// leave a frame in the pool that the measuring goroutine can take.
func TestPumpAllocsPerSegment(t *testing.T) {
	a, b := pair(t)
	l, err := b.Listen(7)
	if err != nil {
		t.Fatal(err)
	}
	go serveEcho(l)
	c := dialEcho(t, a, idB.HIT(), 7)
	defer c.Close()
	// Send into the void from here on, so that no reply wakes this
	// stack's read loop during the measurement.
	a.mu.Lock()
	a.hitToEP[idB.HIT()] = netip.MustParseAddrPort("127.0.0.1:9")
	a.mu.Unlock()
	// Nothing acknowledges these segments, so all the runs together must
	// fit in the initial congestion window of 10 MSS.
	seg := make([]byte, 256)
	sent := func() uint64 {
		a.mu.Lock()
		defer a.mu.Unlock()
		as, _ := a.host.Association(idB.HIT())
		return as.DataSent
	}
	run := func() {
		tx := a.stats.txPackets.Load()
		a.mu.Lock()
		if n, err := c.inner.Write(seg); n != len(seg) || err != nil {
			t.Fatalf("stream write: %d %v", n, err)
		}
		a.pumpLocked(c)
		a.mu.Unlock()
		for a.stats.txPackets.Load() == tx {
			runtime.Gosched()
		}
	}
	const warm, runs = 8, 25
	for range warm {
		run()
	}
	before := sent()
	allocs := testing.AllocsPerRun(runs, run)
	if got := sent() - before; got < (runs+1)*uint64(len(seg)) {
		t.Fatalf("sealed %d payload bytes in %d runs: the window closed mid-measurement", got, runs+1)
	}
	if allocs > poolSlack {
		t.Errorf("%.0f allocations per segment, want %.0f", allocs, poolSlack)
	}
}

// inOrderFrames dials a conn from a fresh stack a to b and returns it with
// at least n sealed in-order data frames of one MSS each from b's end, made
// by b's stream and SA for the test to carry. Both senders are stopped: a
// frame a queues is dropped at once and counted in TxDrops, and nothing b
// sends reaches a. So an allocation count over a.onFrames is its own, with
// no sender goroutine and no reply.
func inOrderFrames(t *testing.T, n int) (a, b *Stack, c *Conn, frames [][]byte) {
	t.Helper()
	a, b = pair(t)
	l, err := b.Listen(7)
	if err != nil {
		t.Fatal(err)
	}
	c, err = a.Dial(idB.HIT(), 7, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	cb, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	// One byte across, so that both streams are established.
	if _, err := c.Write([]byte{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := cb.Read(make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	a.sender.close()
	b.sender.close()
	b.mu.Lock()
	defer b.mu.Unlock()
	if wn, err := cb.inner.Write(make([]byte, n*stream.DefaultMSS)); wn != n*stream.DefaultMSS || err != nil {
		t.Fatalf("stream write: %d %v", wn, err)
	}
	for len(frames) < n {
		segs, _ := cb.inner.Poll(b.now())
		if len(segs) == 0 {
			t.Fatalf("%d frames, want %d", len(frames), n)
		}
		for _, seg := range segs {
			plain := make([]byte, muxHeader+stream.HeaderSize+len(seg.Payload))
			plain[0] = innerStream
			binary.BigEndian.PutUint16(plain[1:], cb.key.localPort)
			binary.BigEndian.PutUint16(plain[3:], cb.key.remotePort)
			seg.MarshalInto(plain[muxHeader:])
			frame, _, err := b.host.SealDataAppend([]byte{frameESP}, idA.HIT(), plain, false)
			if err != nil {
				t.Fatal(err)
			}
			frames = append(frames, frame)
		}
		// Acknowledge the flight on a's behalf, so that b's windows let the
		// next Poll send more. The window is a whole number of MSS, so that
		// b never cuts a segment short at its edge.
		last := segs[len(segs)-1]
		const window = stream.DefaultWindow / stream.DefaultMSS * stream.DefaultMSS
		ack := stream.Segment{Flags: stream.FlagACK, Seq: last.Ack, Ack: last.Seq + uint32(len(last.Payload)), Window: window}
		cb.inner.OnSegment(ack, b.now())
	}
	return a, b, c, frames
}

// TestOnFramesAllocsPerVector pins the receive path's allocation count at 0
// for a vector of in-order data frames that the application reads at once,
// for one frame as for six. The plaintext is opened into the stack's
// scratch, rcvBuf slides in its array, and the one cumulative ACK the vector
// is answered with comes out of a lent Poll slice in a pooled frame, which
// the stopped sender drops back into the pool.
func TestOnFramesAllocsPerVector(t *testing.T) {
	const runs = 25
	for _, vec := range []int{1, 6} {
		a, _, c, frames := inOrderFrames(t, (runs+1)*vec)
		from := make([]netip.AddrPort, vec)
		buf := make([]byte, 16<<10)
		read := 0
		allocs := testing.AllocsPerRun(runs, func() {
			a.onFrames(frames[:vec], from)
			frames = frames[vec:]
			n, err := c.Read(buf)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			read += n
		})
		if total := (runs + 1) * vec * stream.DefaultMSS; read != total {
			t.Fatalf("vectors of %d: read %d bytes in %d runs, want %d: a segment was not delivered in order", vec, read, runs+1, total)
		}
		if allocs > poolSlack {
			t.Errorf("%.0f allocations per vector of %d frames, want %.0f, the ACK frame included", allocs, vec, poolSlack)
		}
	}
}

// TestVectorQueuesOneCumulativeACK hands a's read path one vector of six
// in-order data frames, then one of a frame in order and three past a gap,
// and opens every frame a queues in reply with b's SA. The six are answered
// with one cumulative ACK, not six. The gap vector is answered with four
// ACKs of one Ack: the three duplicates that make the peer fast retransmit
// survive coalescing.
func TestVectorQueuesOneCumulativeACK(t *testing.T) {
	a, b, _, frames := inOrderFrames(t, 11)
	// Open a's stopped sender again: nothing drains its queue now, so what a
	// queues stays there, in wire order, for acks to take.
	a.sender.mu.Lock()
	a.sender.closed = false
	a.sender.mu.Unlock()
	from := make([]netip.AddrPort, 6)
	acks := func(vector ...[]byte) []stream.Segment {
		a.onFrames(vector, from[:len(vector)])
		a.sender.mu.Lock()
		queued := a.sender.queue
		a.sender.queue = nil
		a.sender.mu.Unlock()
		b.mu.Lock()
		defer b.mu.Unlock()
		var segs []stream.Segment
		for _, p := range queued {
			plain, peer, err := b.host.OpenDataAppend(nil, p.buf[1:], false)
			if err != nil || p.buf[0] != frameESP || peer != idA.HIT() || len(plain) < muxHeader {
				t.Fatalf("a queued a frame b cannot open: %v", err)
			}
			seg, err := stream.ParseSegment(plain[muxHeader:])
			if err != nil || seg.Flags != stream.FlagACK || len(seg.Payload) != 0 {
				t.Fatalf("a queued %+v (%v), want pure ACKs", seg, err)
			}
			segs = append(segs, seg)
		}
		return segs
	}
	inOrder := acks(frames[:6]...)
	if len(inOrder) != 1 {
		t.Fatalf("six in-order segments in one vector queued %d ACKs, want one cumulative ACK", len(inOrder))
	}
	gap := acks(frames[6], frames[8], frames[9], frames[10])
	if len(gap) != 4 {
		t.Fatalf("a segment in order and three past a gap queued %d ACKs, want 4", len(gap))
	}
	for _, seg := range gap {
		if want := inOrder[0].Ack + stream.DefaultMSS; seg.Ack != want {
			t.Fatalf("ACK of %d in the gap vector, want all four at %d (one MSS past the cumulative ACK)", seg.Ack, want)
		}
	}
}
