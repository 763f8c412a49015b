// Package hipudp runs the HIP stack over real UDP sockets: the same
// sans-io protocol cores (hipcloud/internal/hip, /esp, /stream) that power
// the simulator drive actual network I/O here, so the base exchange, the
// BEET-ESP data plane and reliable streams work between OS processes —
// e.g. on localhost, or between the paper's "power user" workstation and
// a cloud VM.
//
// Framing: one UDP socket carries both planes, distinguished by a leading
// byte (0 = HIP control packet, 1 = ESP). Inside ESP, payloads use the
// same inner-type byte + port-pair mux as the simulator fabric. Each frame
// is one UDP datagram on the wire. On Linux the sender hands each run of
// equal-size frames to one endpoint to the kernel as one UDP GSO message,
// and the reader takes a run back as one UDP GRO datagram and splits it at
// its segment size, so every layer above sees single frames, each sealed
// with its own ESP ICV.
package hipudp

import (
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/netip"
	"sync"
	"syscall"
	"time"

	"hipcloud/internal/esp"
	"hipcloud/internal/hip"
	"hipcloud/internal/netsim"
	"hipcloud/internal/stream"
)

// Frame type bytes.
const (
	frameHIP byte = 0
	frameESP byte = 1
)

const (
	// innerStream is the inner ESP payload type (must match across
	// implementations); muxHeader is that byte plus the two ports.
	innerStream byte = 1
	muxHeader        = 1 + 4
	// ephemeralBase is the bottom of the port range Dial allocates from.
	ephemeralBase = 41000
)

// Errors returned by the stack.
var (
	ErrClosed      = errors.New("hipudp: stack closed")
	ErrTimeout     = errors.New("hipudp: timed out")
	ErrUnknownPeer = errors.New("hipudp: unknown peer HIT")
	ErrRefused     = errors.New("hipudp: connection refused")
	ErrPortInUse   = errors.New("hipudp: port already bound")
)

// Options carries no field: the stack's socket I/O is not configurable.
//
// Deprecated: bench/ (frozen by BENCHMARK.json) still calls
// NewStackOpts(h, addr, DefaultOptions()); use NewStack.
type Options struct{}

// DefaultOptions returns the empty Options.
//
// Deprecated: see Options.
func DefaultOptions() Options { return Options{} }

// NewStackOpts binds listen for a host the caller built, which must carry
// the bound address as its locator and the zero hip.CostModel. The Options
// argument configures nothing.
//
// Deprecated: see Options.
func NewStackOpts(host *hip.Host, listen string, _ Options) (*Stack, error) {
	addr, err := net.ResolveUDPAddr("udp", listen)
	if err != nil {
		return nil, err
	}
	return start(host, addr)
}

// Stack is a HIP endpoint over one UDP socket.
type Stack struct {
	mu    sync.Mutex
	host  *hip.Host
	pc    *net.UDPConn
	rc    syscall.RawConn
	epoch time.Time

	// peers maps HITs to UDP endpoints (the static hosts-file role).
	peers map[netip.Addr]netip.AddrPort
	// hitToEP maps peer HITs to the UDP endpoints their base exchange or
	// locator update came from: HIP locators carry no port, so several peers
	// may share one IP (e.g. localhost demos) and only the HIT disambiguates
	// them.
	hitToEP map[netip.Addr]netip.AddrPort
	// locToEP maps peer locators back to UDP endpoints as a last resort,
	// learned from the same events and from AddPeer.
	locToEP map[netip.Addr]netip.AddrPort

	// Every blocking call sleeps on a cond under mu until the state it waits
	// for changes: Read, Write and Dial's handshake on their Conn's, Establish
	// and Accept on this one. Only a call with a timeout owns a timer (expiry).
	cond sync.Cond

	conns     map[connKey]*Conn
	listeners map[uint16]*Listener
	nextPort  uint16

	closed bool

	// rxPlain is the scratch onFrames opens each packet's ESP plaintext
	// into, and touched lists the conns one vector's segments reached; both
	// reused under mu. The transmit path needs no scratch (pumpLocked).
	rxPlain []byte
	touched []*Conn

	// Socket counters and the sender every frame leaves through, which owns
	// and returns the pooled frames it is handed.
	stats   ioStats
	txErrMu sync.Mutex
	txErr   error
	sender  sender
	// rxArena is readLoop's receive arena, one 64 KiB buffer per vector
	// slot, taken from the pool before readLoop starts; readDone is closed
	// once readLoop has returned it, and Close waits for that.
	rxArena  [rxBatchMax][]byte
	readDone chan struct{}
}

type connKey struct {
	peer       netip.Addr // HIT
	localPort  uint16
	remotePort uint16
}

// NewStack binds a UDP socket at listen (e.g. "127.0.0.1:10500") and builds
// the HIP host behind it from cfg. The host's locator is the bound address,
// so listen must name one (not 0.0.0.0 or ::), and cfg.Locator, if set,
// must be it. A nil cfg.Rand becomes crypto/rand.Reader. cfg.Costs must be
// zero: a real stack pays real CPU and never drains the host's virtual cost.
func NewStack(cfg hip.Config, listen string) (*Stack, error) {
	addr, err := net.ResolveUDPAddr("udp", listen)
	if err != nil {
		return nil, err
	}
	loc := addr.AddrPort().Addr().Unmap()
	switch {
	case !loc.IsValid() || loc.IsUnspecified():
		return nil, fmt.Errorf("hipudp: listen address %q names no locator", listen)
	case cfg.Locator.IsValid() && cfg.Locator != loc:
		return nil, fmt.Errorf("hipudp: Config.Locator %v is not the bound address %v", cfg.Locator, loc)
	case cfg.Costs != (hip.CostModel{}):
		return nil, errors.New("hipudp: Config.Costs must be zero on a real stack")
	}
	cfg.Locator = loc
	if cfg.Rand == nil {
		cfg.Rand = crand.Reader
	}
	host, err := hip.NewHost(cfg)
	if err != nil {
		return nil, err
	}
	return start(host, addr)
}

// start binds addr for host and runs the stack's goroutines. The stream
// ISNs come from math/rand/v2's runtime-seeded ChaCha8.
func start(host *hip.Host, addr *net.UDPAddr) (*Stack, error) {
	pc, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, err
	}
	rc, err := pc.SyscallConn()
	if err != nil {
		pc.Close()
		return nil, fmt.Errorf("hipudp: raw socket access: %w", err)
	}
	s := &Stack{
		host:      host,
		pc:        pc,
		rc:        rc,
		epoch:     time.Now(),
		peers:     make(map[netip.Addr]netip.AddrPort),
		hitToEP:   make(map[netip.Addr]netip.AddrPort),
		locToEP:   make(map[netip.Addr]netip.AddrPort),
		conns:     make(map[connKey]*Conn),
		listeners: make(map[uint16]*Listener),
		nextPort:  ephemeralBase,
		sender:    sender{done: make(chan struct{})},
		readDone:  make(chan struct{}),
	}
	s.cond.L = &s.mu
	s.sender.cond.L = &s.sender.mu
	for i := range s.rxArena {
		s.rxArena[i] = netsim.GetBuf(64 * 1024)
	}
	go s.readLoop()
	go s.timerLoop()
	go s.senderLoop()
	return s, nil
}

// LocalAddr returns the bound UDP address.
func (s *Stack) LocalAddr() *net.UDPAddr { return s.pc.LocalAddr().(*net.UDPAddr) }

// Host returns the underlying HIP host. The host is guarded by the
// stack's internal lock; prefer AssociationState for concurrent reads.
func (s *Stack) Host() *hip.Host { return s.host }

// AssociationState safely reads the association state with peerHIT.
func (s *Stack) AssociationState(peerHIT netip.Addr) (hip.State, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.host.Association(peerHIT)
	if !ok {
		return 0, false
	}
	return a.State(), true
}

// now returns the stack's monotonic time as a duration from its epoch
// (what the sans-io cores expect).
func (s *Stack) now() time.Duration { return time.Since(s.epoch) }

// AddPeer registers a peer HIT at a UDP endpoint.
func (s *Stack) AddPeer(hit netip.Addr, ep netip.AddrPort) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.peers[hit] = ep
	s.locToEP[ep.Addr()] = ep
}

// Close shuts the stack down and wipes the keys of every association its
// host holds; peers learn of it only when their traffic goes unanswered.
func (s *Stack) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for _, c := range s.conns {
		c.inner.Abort()
		c.cond.Broadcast()
	}
	s.host.Shutdown()
	s.cond.Broadcast()
	s.mu.Unlock()
	// Drain the sender before tearing the socket down so already queued
	// frames still reach the wire.
	s.sender.close()
	err := s.pc.Close()
	<-s.readDone
	return err
}

// readLoop drains inbound datagrams in recvmmsg-sized vectors, splits each
// coalesced datagram at its UDP_GRO segment size into the frames it carries,
// and hands the vector's frames to onFrames whole. It returns the receive
// arena to the pool when the socket closes, so a stack's open and close do
// not allocate one.
func (s *Stack) readLoop() {
	defer close(s.readDone)
	defer func() {
		for _, b := range s.rxArena {
			netsim.PutBuf(b)
		}
	}()
	eng := newRxEngine(s.rc)
	var (
		sizes [rxBatchMax]int
		segs  [rxBatchMax]int
		eps   [rxBatchMax]netip.AddrPort
	)
	frames := make([][]byte, 0, rxBatchMax)
	from := make([]netip.AddrPort, 0, rxBatchMax)
	for {
		cnt, nsys, err := eng.read(s.pc, s.rc, s.rxArena[:], sizes[:], segs[:], eps[:])
		s.stats.rxSyscalls.Add(uint64(nsys))
		if cnt > 0 {
			frames, from = frames[:0], from[:0]
			var n uint64
			for i := range cnt {
				frames, from = appendSegments(frames, from, s.rxArena[i][:sizes[i]], segs[i], eps[i])
				n += uint64(sizes[i])
			}
			s.stats.rxBatches.Add(1)
			s.stats.rxPackets.Add(uint64(len(frames)))
			s.stats.rxBytes.Add(n)
			s.onFrames(frames, from)
		}
		// Stop only on shutdown (Close closes the socket); transient socket
		// errors (e.g. an ICMP port-unreachable surfacing on the UDP socket)
		// must not kill the read loop.
		if errors.Is(err, net.ErrClosed) {
			return
		}
	}
}

// onFrames runs one received vector to completion under one hold of s.mu.
// Frames are handled in order: a control frame (from[i] sent it) goes to the
// host and is answered at once, after the host learns how many control
// frames wait behind it in the vector (its puzzle backlog, as hipsim reports
// its queue's); an ESP frame's segment goes to its conn.
// Each conn a segment reached is pumped and woken once, after the whole
// vector, so that the ACKs of a run of segments leave as one cumulative ACK.
// ESP frames are opened straight out of frames, which may be arena memory
// and is not retained; control frames are copied first, into a buffer of
// their own and not a pooled one, since hip.Host may retain parsed
// parameters.
func (s *Stack) onFrames(frames [][]byte, from []netip.AddrPort) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	queued := 0
	for _, f := range frames {
		if len(f) > 0 && f[0] == frameHIP {
			queued++
		}
	}
	for i, f := range frames {
		if len(f) < 1 {
			continue
		}
		switch f[0] {
		case frameHIP:
			queued--
			s.host.SetBacklog(queued)
			ctl := make([]byte, len(f)-1)
			copy(ctl, f[1:])
			s.controlLocked(ctl, from[i])
		case frameESP:
			if c := s.segmentLocked(f[1:]); c != nil && !c.touched {
				c.touched = true
				s.touched = append(s.touched, c)
			}
		}
	}
	for _, c := range s.touched {
		c.touched = false
		s.pumpLocked(c)
		c.cond.Broadcast()
	}
	clear(s.touched)
	s.touched = s.touched[:0]
}

// controlLocked hands one control packet to the host and sends its answer
// back to from. Callers hold s.mu.
func (s *Stack) controlLocked(data []byte, from netip.AddrPort) {
	s.host.OnPacket(data, from.Addr(), s.now())
	s.flushLocked(from)
}

// segmentLocked opens one ESP packet into rxPlain and feeds the segment
// inside to its conn (OnSegment copies what it keeps), opening the conn if
// the segment is a SYN for a listener. It returns the conn, nil if the
// packet reached none. Callers hold s.mu and pump the conn.
func (s *Stack) segmentLocked(pkt []byte) *Conn {
	payload, peerHIT, err := s.host.OpenDataAppend(s.rxPlain[:0], pkt, false)
	if err != nil || len(payload) < muxHeader || payload[0] != innerStream {
		return nil
	}
	s.rxPlain = payload[:0] // keep what OpenDataAppend grew
	remotePort := binary.BigEndian.Uint16(payload[1:])
	localPort := binary.BigEndian.Uint16(payload[3:])
	seg, err := stream.ParseSegment(payload[muxHeader:])
	if err != nil {
		return nil
	}
	key := connKey{peer: peerHIT, localPort: localPort, remotePort: remotePort}
	c, ok := s.conns[key]
	if !ok {
		if seg.Flags&stream.FlagSYN == 0 || seg.Flags&stream.FlagACK != 0 {
			return nil
		}
		l, ok := s.listeners[localPort]
		if !ok || len(l.backlog) >= 64 {
			return nil
		}
		c = s.newConnLocked(key)
		l.backlog = append(l.backlog, c)
		s.cond.Broadcast()
	}
	c.inner.OnSegment(seg, s.now())
	return c
}

// flushLocked sends pending control packets and wakes establishment
// waiters. from is the source of the control packet the host has just
// handled, the zero AddrPort after any other host call. For this flush only,
// an answer to from's locator goes back to from; and an association that
// packet established or moved learns from as its peer's endpoint. Nothing
// else an unauthenticated packet says is remembered, so a spoofed one cannot
// redirect a peer's frames. Callers hold s.mu.
func (s *Stack) flushLocked(from netip.AddrPort) {
	for _, op := range s.host.Outgoing() {
		// Other control packets resolve by the receiver HIT in the header
		// (bytes 24..40), falling back to our own port on the locator.
		ep, ok := from, from.IsValid() && op.Dst == from.Addr()
		if !ok {
			var hit netip.Addr
			if len(op.Data) >= 40 {
				hit = netip.AddrFrom16([16]byte(op.Data[24:40]))
			}
			ep, ok = s.endpointFor(hit, op.Dst)
		}
		if !ok {
			ep = netip.AddrPortFrom(op.Dst, uint16(s.LocalAddr().Port))
		}
		s.writeFrame(frameHIP, ep, op.Data)
	}
	events := s.host.Events()
	for _, ev := range events {
		if from.IsValid() && (ev.Kind == hip.EventEstablished || ev.Kind == hip.EventLocatorChanged) {
			s.hitToEP[ev.PeerHIT] = from
			s.locToEP[from.Addr()] = from
		}
	}
	if len(events) > 0 {
		s.cond.Broadcast() // an association changed state
	}
}

// endpointFor resolves a peer's UDP endpoint at locator: by HIT first
// (HIP locators carry no port, so several peers may share one IP), then
// by registered peers, then by the locator alone.
func (s *Stack) endpointFor(hit, locator netip.Addr) (netip.AddrPort, bool) {
	if ep, ok := s.hitToEP[hit]; ok && ep.Addr() == locator {
		return ep, true
	}
	if ep, ok := s.peers[hit]; ok && ep.Addr() == locator {
		return ep, true
	}
	ep, ok := s.locToEP[locator]
	return ep, ok
}

// writeFrame queues a copy of data, behind its type byte, on the sender,
// in a pooled buffer the sender returns.
func (s *Stack) writeFrame(typ byte, ep netip.AddrPort, data []byte) {
	buf := netsim.GetBuf(1 + len(data))
	buf[0] = typ
	copy(buf[1:], data)
	s.sender.enqueue(s, txPacket{buf: buf, ep: ep})
}

// timerLoop drives HIP retransmissions and stream RTOs.
func (s *Stack) timerLoop() {
	ticker := time.NewTicker(50 * time.Millisecond)
	defer ticker.Stop()
	for range ticker.C {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		now := s.now()
		if dl := s.host.NextDeadline(); dl != 0 && now >= dl {
			s.host.OnTimer(now)
			s.flushLocked(netip.AddrPort{})
		}
		s.host.Maintain(now)
		s.flushLocked(netip.AddrPort{})
		for _, c := range s.conns {
			if c.deadline != 0 && now >= c.deadline {
				c.inner.OnTimer(now)
				s.pumpLocked(c)
				c.cond.Broadcast()
			}
		}
		s.mu.Unlock()
	}
}

// expiry is the one timer a blocking call with a timeout owns, for the call's
// whole duration. Its callback takes the stack lock before it broadcasts:
// otherwise the fire could fall between the caller's expired check and its
// Wait, and be lost.
type expiry struct {
	cond    *sync.Cond // what the call sleeps on
	expired bool
}

func (s *Stack) expireAfterLocked(timeout time.Duration) (*expiry, *time.Timer) {
	x := &expiry{cond: &s.cond}
	return x, time.AfterFunc(timeout, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		x.expired = true
		x.cond.Broadcast()
	})
}

// Establish runs (or reuses) the base exchange with peerHIT.
func (s *Stack) Establish(peerHIT netip.Addr, timeout time.Duration) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	x, timer := s.expireAfterLocked(timeout)
	defer timer.Stop()
	return s.establishLocked(peerHIT, x)
}

// establishLocked is Establish under s.mu and the caller's timer.
func (s *Stack) establishLocked(peerHIT netip.Addr, x *expiry) error {
	for started := false; ; s.cond.Wait() {
		a, ok := s.host.Association(peerHIT)
		switch {
		case s.closed:
			return ErrClosed
		case ok && a.State() == hip.Established:
			return nil
		case x.expired:
			return ErrTimeout
		case !started:
			ep, known := s.peers[peerHIT]
			if !known {
				return ErrUnknownPeer
			}
			s.host.Connect(peerHIT, ep.Addr(), s.now())
			s.flushLocked(netip.AddrPort{})
			started = true
		case !ok:
			return ErrRefused // a failed base exchange deletes the association
		}
	}
}

func (s *Stack) newConnLocked(key connKey) *Conn {
	c := &Conn{
		stack: s,
		key:   key,
		inner: stream.New(stream.Config{}, rand.Uint32()),
		cond:  sync.Cond{L: &s.mu},
	}
	s.conns[key] = c
	return c
}

// pumpLocked flushes a conn's outgoing segments through ESP and forgets
// the conn once it is closed on both sides. Of a run of pure ACKs only
// those the peer needs leave (stream.CoalesceACKs). Each segment's mux and
// stream headers are built in a stack array and sealed, with the lent
// payload view behind them, straight into a pooled frame that the sender
// returns to the pool: one copy of each payload byte, no allocation.
// Callers hold s.mu.
func (s *Stack) pumpLocked(c *Conn) {
	if s.closed {
		return
	}
	segs, deadline := c.inner.Poll(s.now())
	c.deadline = deadline
	var hdr [muxHeader + stream.HeaderSize]byte
	hdr[0] = innerStream
	binary.BigEndian.PutUint16(hdr[1:], c.key.localPort)
	binary.BigEndian.PutUint16(hdr[3:], c.key.remotePort)
	for _, seg := range stream.CoalesceACKs(segs) {
		payload := seg.Payload
		seg.Payload = nil
		seg.MarshalInto(hdr[muxHeader:])
		buf := netsim.GetBuf(1 + len(hdr) + len(payload) + esp.MaxOverhead)
		buf[0] = frameESP
		frame, dst, err := s.host.SealDataHdrAppend(buf[:1], c.key.peer, hdr[:], payload, false)
		if err != nil {
			netsim.PutBuf(buf)
			c.inner.Abort()
			c.cond.Broadcast()
			break
		}
		if ep, ok := s.endpointFor(c.key.peer, dst); ok {
			s.sender.enqueue(s, txPacket{buf: frame, ep: ep})
		} else {
			netsim.PutBuf(frame)
		}
	}
	if st := c.inner.State(); c.closedByUser && (st == stream.StateClosed || st == stream.StateReset) {
		delete(s.conns, c.key)
	}
}

// allocPortLocked returns the next ephemeral port that no listener and
// no live conn holds.
func (s *Stack) allocPortLocked() uint16 {
	for {
		s.nextPort++
		if s.nextPort < ephemeralBase {
			s.nextPort = ephemeralBase
		}
		_, used := s.listeners[s.nextPort]
		for k := range s.conns {
			used = used || k.localPort == s.nextPort
		}
		if !used {
			return s.nextPort
		}
	}
}

// Dial opens a reliable stream to peerHIT:port over ESP.
func (s *Stack) Dial(peerHIT netip.Addr, port uint16, timeout time.Duration) (*Conn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	x, timer := s.expireAfterLocked(timeout)
	defer timer.Stop()
	if err := s.establishLocked(peerHIT, x); err != nil {
		return nil, err
	}
	key := connKey{peer: peerHIT, localPort: s.allocPortLocked(), remotePort: port}
	c := s.newConnLocked(key)
	x.cond = &c.cond
	c.inner.Open(s.now())
	s.pumpLocked(c)
	for !c.inner.Established() {
		if c.inner.State() == stream.StateReset {
			delete(s.conns, key)
			return nil, ErrRefused
		}
		if x.expired {
			delete(s.conns, key)
			return nil, ErrTimeout
		}
		c.cond.Wait()
	}
	return c, nil
}

// Listener accepts inbound streams.
type Listener struct {
	stack   *Stack
	port    uint16
	backlog []*Conn
	closed  bool
}

// Listen binds a stream listener on port.
func (s *Stack) Listen(port uint16) (*Listener, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, used := s.listeners[port]; used {
		return nil, ErrPortInUse
	}
	l := &Listener{stack: s, port: port}
	s.listeners[port] = l
	return l, nil
}

// Accept blocks until a connection arrives.
func (l *Listener) Accept() (*Conn, error) {
	l.stack.mu.Lock()
	defer l.stack.mu.Unlock()
	for len(l.backlog) == 0 {
		if l.closed || l.stack.closed {
			return nil, ErrClosed
		}
		l.stack.cond.Wait()
	}
	c := l.backlog[0]
	l.backlog = l.backlog[1:]
	return c, nil
}

// Close stops the listener. Conns that arrived but were never accepted
// are reset and forgotten, so their dialers do not wait forever.
func (l *Listener) Close() {
	s := l.stack
	s.mu.Lock()
	defer s.mu.Unlock()
	l.closed = true
	delete(s.listeners, l.port)
	for _, c := range l.backlog {
		c.closedByUser = true
		c.inner.Abort()
		s.pumpLocked(c)
	}
	l.backlog = nil
	s.cond.Broadcast()
}

// Conn is a reliable stream inside the ESP tunnel. It implements
// io.ReadWriteCloser.
type Conn struct {
	stack    *Stack
	key      connKey
	inner    *stream.Conn
	cond     sync.Cond
	deadline time.Duration
	// closedByUser lets pumpLocked forget the conn once the stream is done.
	closedByUser bool
	// touched is set while the conn is listed in Stack.touched.
	touched bool
}

// PeerHIT returns the remote host identity tag.
func (c *Conn) PeerHIT() netip.Addr { return c.key.peer }

// Read blocks until data, end of stream (io.EOF once the peer has closed
// and everything is drained), reset (ErrRefused) or the local stack's
// Close (ErrClosed).
func (c *Conn) Read(b []byte) (int, error) {
	c.stack.mu.Lock()
	defer c.stack.mu.Unlock()
	for {
		n, err := c.inner.Read(b)
		if n > 0 {
			if c.inner.MaybeWindowUpdate() {
				c.stack.pumpLocked(c)
			}
			return n, nil
		}
		// Stack.Close aborts every stream, so test it before ErrReset.
		if c.stack.closed {
			return 0, ErrClosed
		}
		switch err {
		case stream.ErrEOF:
			return 0, io.EOF
		case stream.ErrReset:
			return 0, ErrRefused
		}
		c.cond.Wait()
	}
}

// Write blocks until all of b is buffered.
func (c *Conn) Write(b []byte) (int, error) {
	c.stack.mu.Lock()
	defer c.stack.mu.Unlock()
	total := 0
	for len(b) > 0 {
		n, err := c.inner.Write(b)
		if err != nil {
			return total, ErrClosed
		}
		if n > 0 {
			total += n
			b = b[n:]
			c.stack.pumpLocked(c)
		} else {
			if c.stack.closed {
				return total, ErrClosed
			}
			c.cond.Wait()
		}
	}
	return total, nil
}

// Close starts an orderly shutdown.
func (c *Conn) Close() error {
	c.stack.mu.Lock()
	defer c.stack.mu.Unlock()
	c.closedByUser = true
	c.inner.Close()
	c.stack.pumpLocked(c)
	c.cond.Broadcast()
	return nil
}
