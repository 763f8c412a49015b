package hipudp

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"testing"
	"time"

	"hipcloud/internal/hip"
	"hipcloud/internal/hipwire"
	"hipcloud/internal/identity"
	"hipcloud/internal/puzzle"
)

var (
	idA = identity.MustGenerate(identity.AlgECDSA)
	idB = identity.MustGenerate(identity.AlgECDSA)
)

// pair brings up two stacks on localhost and cross-registers them.
func pair(t testing.TB) (*Stack, *Stack) {
	t.Helper()
	a, b := newTestStack(t, idA), newTestStack(t, idB)
	epA := netip.MustParseAddrPort(fmt.Sprintf("127.0.0.1:%d", a.LocalAddr().Port))
	epB := netip.MustParseAddrPort(fmt.Sprintf("127.0.0.1:%d", b.LocalAddr().Port))
	a.AddPeer(idB.HIT(), epB)
	b.AddPeer(idA.HIT(), epA)
	return a, b
}

func TestRealUDPBaseExchange(t *testing.T) {
	a, b := pair(t)
	if err := a.Establish(idB.HIT(), 5*time.Second); err != nil {
		t.Fatalf("establish: %v", err)
	}
	// Both sides hold an established association.
	if st, ok := a.AssociationState(idB.HIT()); !ok || st != hip.Established {
		t.Fatal("initiator association missing")
	}
	if st, ok := b.AssociationState(idA.HIT()); !ok || st != hip.Established {
		t.Fatal("responder association missing")
	}
	// Idempotent re-establish.
	if err := a.Establish(idB.HIT(), time.Second); err != nil {
		t.Fatalf("re-establish: %v", err)
	}
}

func TestRealUDPStreamEcho(t *testing.T) {
	a, b := pair(t)
	l, err := b.Listen(7)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		buf := make([]byte, 256)
		n, err := c.Read(buf)
		if err != nil {
			return
		}
		c.Write(buf[:n])
		c.Close()
	}()
	c, err := a.Dial(idB.HIT(), 7, 5*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	msg := []byte("encrypted echo over real udp")
	if _, err := c.Write(msg); err != nil {
		t.Fatalf("write: %v", err)
	}
	buf := make([]byte, 256)
	n, err := c.Read(buf)
	if err != nil || !bytes.Equal(buf[:n], msg) {
		t.Fatalf("read: %q %v", buf[:n], err)
	}
	if c.PeerHIT() != idB.HIT() {
		t.Fatal("peer HIT mismatch")
	}
	c.Close()
}

func TestRealUDPBulkTransfer(t *testing.T) {
	a, b := pair(t)
	l, err := b.Listen(9)
	if err != nil {
		t.Fatal(err)
	}
	const total = 300 << 10
	recvDone := make(chan []byte, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			recvDone <- nil
			return
		}
		var got []byte
		buf := make([]byte, 32*1024)
		for len(got) < total {
			n, err := c.Read(buf)
			if n > 0 {
				got = append(got, buf[:n]...)
			}
			if err != nil {
				break
			}
		}
		recvDone <- got
	}()
	c, err := a.Dial(idB.HIT(), 9, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, total)
	for i := range data {
		data[i] = byte(i * 13)
	}
	if _, err := c.Write(data); err != nil {
		t.Fatalf("write: %v", err)
	}
	c.Close()
	select {
	case got := <-recvDone:
		if !bytes.Equal(got, data) {
			t.Fatalf("bulk mismatch: %d of %d bytes", len(got), total)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("bulk transfer timed out")
	}
}

func TestDialUnknownPeer(t *testing.T) {
	a, _ := pair(t)
	if _, err := a.Dial(idA.HIT(), 7, time.Second); err != ErrUnknownPeer {
		t.Fatalf("err = %v, want ErrUnknownPeer", err)
	}
}

func TestDialNoListener(t *testing.T) {
	a, _ := pair(t)
	_, err := a.Dial(idB.HIT(), 4242, 2*time.Second)
	if err == nil {
		t.Fatal("dial succeeded without listener")
	}
}

// TestReadAllSeesEOF: a clean peer FIN is io.EOF, so the io helpers end
// without an error.
func TestReadAllSeesEOF(t *testing.T) {
	a, b := pair(t)
	l, err := b.Listen(7)
	if err != nil {
		t.Fatal(err)
	}
	msg := bytes.Repeat([]byte("to the last byte "), 1000)
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		c.Write(msg)
		c.Close()
	}()
	c, err := a.Dial(idB.HIT(), 7, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := io.ReadAll(c)
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("ReadAll = %d bytes, %v; want %d, nil", len(got), err, len(msg))
	}
}

func TestCloseUnblocksReaders(t *testing.T) {
	a, b := pair(t)
	l, _ := b.Listen(7)
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		io.Copy(io.Discard, c)
	}()
	c, err := a.Dial(idB.HIT(), 7, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Read(make([]byte, 16))
		done <- err
	}()
	time.Sleep(100 * time.Millisecond)
	a.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("read after close: %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reader not unblocked by Close")
	}
}

func TestMultiplePeersShareOneIP(t *testing.T) {
	// Three stacks on 127.0.0.1 with different ports: HIP locators carry
	// no port, so endpoint resolution must demux by HIT (regression test
	// for the localhost-proxy scenario).
	ids := []*identity.HostIdentity{
		identity.MustGenerate(identity.AlgECDSA),
		identity.MustGenerate(identity.AlgECDSA),
		identity.MustGenerate(identity.AlgECDSA),
	}
	var stacks []*Stack
	for _, id := range ids {
		s, err := NewStack(hip.Config{Identity: id}, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		stacks = append(stacks, s)
		t.Cleanup(func() { s.Close() })
	}
	ep := func(s *Stack) netip.AddrPort {
		return netip.MustParseAddrPort(fmt.Sprintf("127.0.0.1:%d", s.LocalAddr().Port))
	}
	// Stack 0 is the client; 1 and 2 are servers it knows by HIT.
	for i := 1; i <= 2; i++ {
		stacks[0].AddPeer(ids[i].HIT(), ep(stacks[i]))
		stacks[i].AddPeer(ids[0].HIT(), ep(stacks[0]))
	}
	for i := 1; i <= 2; i++ {
		srv := stacks[i]
		l, err := srv.Listen(80)
		if err != nil {
			t.Fatal(err)
		}
		idx := i
		go func() {
			for {
				c, err := l.Accept()
				if err != nil {
					return
				}
				go func() {
					defer c.Close()
					buf := make([]byte, 64)
					if _, err := c.Read(buf); err != nil {
						return
					}
					c.Write([]byte(fmt.Sprintf("server-%d", idx)))
				}()
			}
		}()
	}
	// Both servers must be independently reachable despite the shared IP.
	for i := 1; i <= 2; i++ {
		c, err := stacks[0].Dial(ids[i].HIT(), 80, 5*time.Second)
		if err != nil {
			t.Fatalf("dial server %d: %v", i, err)
		}
		c.Write([]byte("who are you"))
		buf := make([]byte, 64)
		n, err := c.Read(buf)
		if err != nil {
			t.Fatalf("read from server %d: %v", i, err)
		}
		want := fmt.Sprintf("server-%d", i)
		if string(buf[:n]) != want {
			t.Fatalf("got %q, want %q — endpoint demux crossed peers", buf[:n], want)
		}
		c.Close()
	}
}

// TestSpoofedI1CannotRedirectPeer is the endpoint-learning attack: an
// outsider on the victim's IP sends the responder an I1 that carries the
// victim's HIT, from another port. The responder answers that I1 where it
// came from, but the victim's established stream must keep its endpoint:
// the next echo reaches the victim, and no ESP frame reaches the outsider.
func TestSpoofedI1CannotRedirectPeer(t *testing.T) {
	victim, b := pair(t)
	l, err := b.Listen(7)
	if err != nil {
		t.Fatal(err)
	}
	go serveEcho(l)
	c := dialEcho(t, victim, idB.HIT(), 7)
	defer c.Close()

	spoofer, _ := newTestSocket(t)
	i1 := (&hipwire.Packet{Type: hipwire.I1, SenderHIT: idA.HIT(), ReceiverHIT: idB.HIT()}).Marshal()
	if _, err := spoofer.WriteToUDPAddrPort(append([]byte{frameHIP}, i1...), b.LocalAddr().AddrPort()); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64*1024)
	spoofer.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := spoofer.Read(buf); err != nil || n < 1 || buf[0] != frameHIP {
		t.Fatalf("spoofed I1 got no control answer: %d bytes, %v", n, err)
	}

	msg := []byte("still mine")
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	echoed := make(chan error, 1)
	go func() {
		got := make([]byte, len(msg))
		_, err := io.ReadFull(c, got)
		if err == nil && !bytes.Equal(got, msg) {
			err = fmt.Errorf("echo = %q, want %q", got, msg)
		}
		echoed <- err
	}()
	select {
	case err := <-echoed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("the victim's echo never came back: the spoofed I1 redirected it")
	}
	spoofer.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	for {
		n, err := spoofer.Read(buf)
		if err != nil {
			break
		}
		if n > 0 && buf[0] == frameESP {
			t.Fatal("the responder sent the victim's ESP frames to the spoofer")
		}
	}
}

// TestResponderLearnsInitiatorFromBEX: a responder that has no AddPeer for
// its initiator (as a server for unknown clients) learns the initiator's
// endpoint from the base exchange it completed, and streams work both ways.
func TestResponderLearnsInitiatorFromBEX(t *testing.T) {
	a, b := newTestStack(t, idA), newTestStack(t, idB)
	a.AddPeer(idB.HIT(), b.LocalAddr().AddrPort())
	l, err := b.Listen(7)
	if err != nil {
		t.Fatal(err)
	}
	go serveEcho(l)
	dialEcho(t, a, idB.HIT(), 7).Close()
	b.mu.Lock()
	ep := b.hitToEP[idA.HIT()]
	b.mu.Unlock()
	if ep != a.LocalAddr().AddrPort() {
		t.Fatalf("responder learned %v for the initiator, want %v", ep, a.LocalAddr().AddrPort())
	}
}

// TestStacksDrawTheirOwnRandomness: two stacks built from an identity alone,
// as hipd, hipproxy and quickstart build them, each run a base exchange with
// a third. Hosts that all drew from one fixed seed would hand the responder
// one SPI from both.
func TestStacksDrawTheirOwnRandomness(t *testing.T) {
	idC := identity.MustGenerate(identity.AlgECDSA)
	a, b, c := newTestStack(t, idA), newTestStack(t, idB), newTestStack(t, idC)
	for _, s := range []*Stack{a, b} {
		s.AddPeer(idC.HIT(), c.LocalAddr().AddrPort())
		if err := s.Establish(idC.HIT(), 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ca, okA := c.host.Association(idA.HIT())
	cb, okB := c.host.Association(idB.HIT())
	if !okA || !okB {
		t.Fatal("responder lost an association")
	}
	_, spiA := ca.SPIs()
	_, spiB := cb.SPIs()
	if spiA == spiB {
		t.Fatalf("both initiators chose inbound SPI %#x", spiA)
	}
}

// TestRetransmitsAreJittered: a stack hands its host a jitter source, so an
// I1's first retransmission is not due exactly RetransmitBase after Connect,
// the instant at which every initiator that lost the same packet would
// otherwise retry.
func TestRetransmitsAreJittered(t *testing.T) {
	const base = 500 * time.Millisecond
	s, err := NewStack(hip.Config{Identity: idA, RetransmitBase: base}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	if err := s.host.Connect(idB.HIT(), netip.MustParseAddr("127.0.0.1"), now); err != nil {
		t.Fatal(err)
	}
	if d := s.host.NextDeadline() - now; d == base || d < base/2 || d >= base*3/2 {
		t.Fatalf("first retransmit due %v after Connect, want a draw in [%v, %v) other than %v", d, base/2, base*3/2, base)
	}
}

// TestNewStackRejectsWhatItCannotHonour: the host's locator is the bound
// address, so a listen address that names none and a Locator that names
// another are errors, and so is a virtual cost model, which a real stack
// never drains.
func TestNewStackRejectsWhatItCannotHonour(t *testing.T) {
	for _, tc := range []struct {
		name, listen string
		cfg          hip.Config
	}{
		{"unspecified IPv4", "0.0.0.0:0", hip.Config{Identity: idA}},
		{"unspecified IPv6", "[::]:0", hip.Config{Identity: idA}},
		{"no address", ":0", hip.Config{Identity: idA}},
		{"conflicting locator", "127.0.0.1:0", hip.Config{Identity: idA, Locator: netip.MustParseAddr("10.0.0.1")}},
		{"virtual costs", "127.0.0.1:0", hip.Config{Identity: idA, Costs: hip.CostModel{Sign: time.Millisecond}}},
	} {
		if s, err := NewStack(tc.cfg, tc.listen); err == nil {
			s.Close()
			t.Errorf("%s: NewStack(%q) succeeded", tc.name, tc.listen)
		}
	}
	loc := netip.MustParseAddr("127.0.0.1")
	s, err := NewStack(hip.Config{Identity: idA, Locator: loc}, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("the bound address as Locator: %v", err)
	}
	defer s.Close()
	if got := s.Host().Locator(); got != loc {
		t.Fatalf("host locator %v, want %v", got, loc)
	}
}

// TestVectorBacklogHardensPuzzles: three I1s from three fresh HITs arrive in
// one receive vector. Each initiator's own I1 rate is one, so only the
// control frames queued behind each I1 in the vector can raise its K: the
// first waits on two and gets MaxK, the second on one, the last on none.
func TestVectorBacklogHardensPuzzles(t *testing.T) {
	diff := puzzle.Difficulty{BaseK: 1, MaxK: 9, LowWater: 1, HighWater: 3}
	b, err := NewStack(hip.Config{Identity: idB, Puzzle: diff}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	sink, ep := newTestSocket(t)
	var frames [][]byte
	var from []netip.AddrPort
	want := map[netip.Addr]uint8{}
	for i := range 3 {
		hit := netip.AddrFrom16([16]byte{0x20, 0x01, 0x00, 0x2f, 15: byte(i + 1)})
		i1 := (&hipwire.Packet{Type: hipwire.I1, SenderHIT: hit, ReceiverHIT: idB.HIT()}).Marshal()
		frames = append(frames, append([]byte{frameHIP}, i1...))
		from = append(from, ep)
		want[hit] = diff.K(1 + 2 - i)
	}
	b.onFrames(frames, from)
	buf := make([]byte, 64*1024)
	sink.SetReadDeadline(time.Now().Add(5 * time.Second))
	for range frames {
		n, err := sink.Read(buf)
		if err != nil {
			t.Fatalf("R1s: %v", err)
		}
		pkt, err := hipwire.Parse(buf[1:n])
		if err != nil || buf[0] != frameHIP || pkt.Type != hipwire.R1 {
			t.Fatalf("want an R1 frame, got %x (%v)", buf[:n], err)
		}
		p, _ := pkt.Get(hipwire.ParamPuzzle)
		pz, err := hipwire.ParsePuzzle(p.Data)
		if err != nil {
			t.Fatal(err)
		}
		if k, ok := want[pkt.ReceiverHIT]; !ok || pz.K != k {
			t.Errorf("R1 to %v carries K=%d, want %d", pkt.ReceiverHIT, pz.K, k)
		}
		delete(want, pkt.ReceiverHIT)
	}
}
