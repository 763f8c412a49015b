package hipudp

import (
	"bytes"
	"encoding/binary"
	"net"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"hipcloud/internal/hip"
	"hipcloud/internal/netsim"
)

// echoBytes pushes total bytes through one stream and reads the echo.
func echoBytes(t *testing.T, a, b *Stack, total int) {
	t.Helper()
	l, err := b.Listen(9)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		buf := make([]byte, 4096)
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
	c, err := a.Dial(idB.HIT(), 9, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	msg := make([]byte, 1400)
	got := make([]byte, 4096)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for n := 0; n < total; {
			rn, err := c.Read(got)
			if err != nil {
				t.Errorf("echo read after %d/%d bytes: %v", n, total, err)
				return
			}
			n += rn
		}
	}()
	for n := 0; n < total; n += len(msg) {
		if _, err := c.Write(msg); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("echo stalled")
	}
}

// TestBatchedWriteErrorSurfaces verifies the sender counts socket
// failures instead of swallowing them.
func TestBatchedWriteErrorSurfaces(t *testing.T) {
	s, err := NewStack(hip.Config{Identity: idA}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.pc.Close() // break the socket under the stack
	ep := netip.MustParseAddrPort("127.0.0.1:9")
	for i := 0; i < 4; i++ {
		s.writeFrame(frameESP, ep, []byte("lost"))
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().TxErrors == 0 {
		if time.Now().After(deadline) {
			t.Fatal("TxErrors never incremented for writes on a closed socket")
		}
		time.Sleep(time.Millisecond)
	}
	if s.TxErr() == nil {
		t.Fatal("TxErr() = nil, want the retained write error")
	}
	if n := s.Stats().TxPackets; n != 0 {
		t.Fatalf("TxPackets = %d, failed frames must not be counted as sent", n)
	}
	s.Close()
}

// TestBatchingReducesSyscalls drives enough localhost traffic through
// the stack that sendmmsg/recvmmsg must coalesce: strictly fewer
// syscalls than packets on both sides of the socket. Packets are counted
// per syscall on both sides, and loopback loses none, so once the last
// ACK has landed each side has read exactly what the other wrote.
func TestBatchingReducesSyscalls(t *testing.T) {
	if !VectoredIO() {
		t.Skip("vectored I/O not compiled in on this platform")
	}
	a, b := pair(t)
	echoBytes(t, a, b, 512*1024)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		sa, sb := a.Stats(), b.Stats()
		if sa.TxPackets == sb.RxPackets && sb.TxPackets == sa.RxPackets &&
			sa.TxBytes == sb.RxBytes && sb.TxBytes == sa.RxBytes {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("packets/bytes: dialer Tx %d/%d Rx %d/%d, listener Tx %d/%d Rx %d/%d; want each side's Tx = the other's Rx",
				sa.TxPackets, sa.TxBytes, sa.RxPackets, sa.RxBytes, sb.TxPackets, sb.TxBytes, sb.RxPackets, sb.RxBytes)
		}
	}
	for _, tc := range []struct {
		name string
		st   Stats
	}{{"dialer", a.Stats()}, {"listener", b.Stats()}} {
		if tc.st.TxPackets == 0 || tc.st.RxPackets == 0 {
			t.Fatalf("%s: no traffic counted: %+v", tc.name, tc.st)
		}
		if tc.st.TxSyscalls >= tc.st.TxPackets {
			t.Errorf("%s: TxSyscalls=%d >= TxPackets=%d — sendmmsg batching ineffective",
				tc.name, tc.st.TxSyscalls, tc.st.TxPackets)
		}
		if tc.st.RxSyscalls >= tc.st.RxPackets {
			t.Errorf("%s: RxSyscalls=%d >= RxPackets=%d — recvmmsg batching ineffective",
				tc.name, tc.st.RxSyscalls, tc.st.RxPackets)
		}
		if tc.st.TxErrors != 0 {
			t.Errorf("%s: TxErrors=%d during healthy echo", tc.name, tc.st.TxErrors)
		}
	}
}

// TestShardOrderingSingleAssociation checks that enqueue order is wire
// order: numbered frames pushed through writeFrame reach a bare UDP socket
// in sequence. The bursts are longer than a send batch and shorter than the
// socket's receive buffer, so that nothing is dropped on the way.
func TestShardOrderingSingleAssociation(t *testing.T) {
	s := newTestStack(t, idA)
	sink, ep := newTestSocket(t)
	const frames, burst = 1000, 100
	buf := make([]byte, 64)
	for base := uint32(0); base < frames; base += burst {
		for i := base; i < base+burst; i++ {
			s.writeFrame(frameESP, ep, binary.BigEndian.AppendUint32(nil, i))
		}
		for want := base; want < base+burst; want++ {
			sink.SetReadDeadline(time.Now().Add(5 * time.Second))
			n, err := sink.Read(buf)
			if err != nil {
				t.Fatalf("frame %d: %v (TxDrops %d)", want, err, s.Stats().TxDrops)
			}
			if n != 5 || buf[0] != frameESP || binary.BigEndian.Uint32(buf[1:]) != want {
				t.Fatalf("got frame % x, want number %d: the sender reordered", buf[:n], want)
			}
		}
	}
	if runtime.GOOS == "linux" && !batchIO && runtime.GOARCH == "amd64" {
		t.Fatal("amd64 linux must compile the vectored engine")
	}
}

// TestGSORunRule pins which frames from a batch's head leave as one
// UDP_SEGMENT message.
func TestGSORunRule(t *testing.T) {
	epA := netip.MustParseAddrPort("127.0.0.1:1")
	epB := netip.MustParseAddrPort("127.0.0.1:2")
	frames := func(ep netip.AddrPort, sizes ...int) []txPacket {
		var b []txPacket
		for _, n := range sizes {
			b = append(b, txPacket{buf: make([]byte, n), ep: ep})
		}
		return b
	}
	repeat := func(size, n int) []int {
		s := make([]int, n)
		for i := range s {
			s[i] = size
		}
		return s
	}
	for _, tc := range []struct {
		name  string
		batch []txPacket
		want  int
	}{
		{"lone frame", frames(epA, 1450), 1},
		{"equal-size run", frames(epA, 1450, 1450, 1450, 1450), 4},
		{"run and its short tail", frames(epA, 1450, 1450, 1450, 300), 4},
		{"tail ends the run", frames(epA, 1450, 1450, 300, 1450, 1450), 3},
		{"lone frame and a shorter tail stay apart", frames(epA, 1450, 64), 1},
		{"longer frame ends the run", frames(epA, 1450, 1450, 1500), 2},
		{"size change at the head", frames(epA, 64, 1450, 1450), 1},
		{"endpoint change ends the run", append(frames(epA, 1450, 1450), frames(epB, 1450, 1450)...), 2},
		{"endpoint change after one frame", append(frames(epA, 1450), frames(epB, 1450)...), 1},
		{"short tail to another endpoint", append(frames(epA, 1450, 1450), frames(epB, 300)...), 2},
		{"64-segment cap", frames(epA, repeat(100, 70)...), gsoMaxSegs},
		{"64-segment cap leaves the tail out", frames(epA, append(repeat(100, gsoMaxSegs), 50)...), gsoMaxSegs},
		{"64 KiB cap", frames(epA, repeat(1450, 50)...), gsoMaxBytes / 1450},
		{"64 KiB cap leaves the tail out", frames(epA, append(repeat(1200, gsoMaxBytes/1200), 800)...), gsoMaxBytes / 1200},
		{"two frames over 64 KiB", frames(epA, 40000, 40000), 1},
	} {
		if got := gsoRun(tc.batch); got != tc.want {
			t.Errorf("%s: gsoRun = %d frames, want %d", tc.name, got, tc.want)
		}
	}
}

// segmentBatch is a run of MSS-size frames and a shorter tail, each frame
// numbered so that a sink can tell them apart. The frames are pooled, as
// the sender that returns them expects: a foreign buffer put into the pool
// is later handed out uncounted, and PoolOutstanding would miss it.
func segmentBatch(ep netip.AddrPort) []txPacket {
	var batch []txPacket
	for i := 0; i < 20; i++ {
		n := 1450
		if i == 19 {
			n = 300
		}
		buf := netsim.GetBuf(n)
		for j := range buf {
			buf[j] = byte(i)
		}
		buf[0] = frameESP
		batch = append(batch, txPacket{buf: buf, ep: ep})
	}
	return batch
}

// frameBytes copies each frame of batch: transmit hands every frame it is
// given back to the pool, which poisons it, so a test that compares what
// arrived with what was sent keeps a copy from before the send.
func frameBytes(batch []txPacket) [][]byte {
	out := make([][]byte, len(batch))
	for i, p := range batch {
		out[i] = bytes.Clone(p.buf)
	}
	return out
}

// transmitTo sends batch from s through eng to sink and returns the
// datagrams sink reads and the stack's counters after the send.
func transmitTo(t *testing.T, s *Stack, eng *txEngine, sink *net.UDPConn, batch []txPacket) ([][]byte, Stats) {
	t.Helper()
	s.transmit(eng, batch)
	var got [][]byte
	buf := make([]byte, 64*1024)
	for {
		sink.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		n, err := sink.Read(buf)
		if err != nil {
			break
		}
		got = append(got, append([]byte(nil), buf[:n]...))
	}
	return got, s.Stats()
}

// TestSegmentRunReachesPlainSocket sends a run of MSS-size frames and a
// shorter tail, which leaves as one UDP_SEGMENT message where the kernel
// has GSO, to a plain socket that has not asked for GRO: it must read one
// datagram per frame, with the frames' sizes, in order.
func TestSegmentRunReachesPlainSocket(t *testing.T) {
	s := newTestStack(t, idA)
	sink, ep := newTestSocket(t)
	batch := segmentBatch(ep)
	want := frameBytes(batch)
	got, st := transmitTo(t, s, newTxEngine(), sink, batch)
	if len(got) != len(want) {
		t.Fatalf("sink read %d datagrams, want %d (one per frame)", len(got), len(want))
	}
	for i, w := range want {
		if !bytes.Equal(got[i], w) {
			t.Fatalf("datagram %d: %d bytes starting % x, want frame %d (%d bytes)", i, len(got[i]), got[i][:min(len(got[i]), 2)], i, len(w))
		}
	}
	if st.TxPackets != uint64(len(want)) || st.TxErrors != 0 {
		t.Fatalf("TxPackets %d TxErrors %d, want %d and 0", st.TxPackets, st.TxErrors, len(want))
	}
}
