// Package simtcp provides blocking, TCP-like stream connections inside the
// netsim simulator, built on the sans-io core of hipcloud/internal/stream.
//
// A Stack is attached to one simulated node and multiplexes any number of
// connections over a Fabric — the thing that actually carries marshaled
// segments. Two fabrics exist:
//
//   - the plain fabric in this package (segments over a well-known
//     simulated UDP port), used for the paper's "basic" and SSL scenarios;
//   - the HIP/ESP fabric in hipcloud/internal/hipsim, which runs the base
//     exchange on first contact and seals every segment in ESP.
//
// All crypto/packet CPU costs reported by the fabric are charged to the
// node's simulated CPU by the stack's service loop, so security protocols
// consume VM compute exactly where the paper says they do.
//
// The stack is run-to-completion: inbound segments, outbound flushes and
// retransmission timers are handled by scheduler-context callbacks (a
// coalesced "kick" event plus one re-armable netsim.Timer), not by a
// parked pump goroutine. Only the user-facing Conn API (Read, Write,
// Dial, Accept) blocks a process.
package simtcp

import (
	"encoding/binary"
	"errors"
	"net/netip"
	"sort"
	"time"

	"hipcloud/internal/netsim"
	"hipcloud/internal/stream"
)

// Errors returned by stack operations.
var (
	ErrTimeout   = errors.New("simtcp: operation timed out")
	ErrRefused   = errors.New("simtcp: connection refused")
	ErrClosed    = errors.New("simtcp: closed")
	ErrReset     = errors.New("simtcp: connection reset")
	ErrPortInUse = errors.New("simtcp: port already bound")
)

// Fabric carries marshaled segments between stacks. Implementations
// translate peer addresses (IPs, HITs or LSIs) into actual delivery.
type Fabric interface {
	// Canonical maps a user-supplied peer identifier (IP, HIT or LSI) to
	// the canonical address connections are keyed on (LSIs map to HITs;
	// the fabric remembers that the peer is in LSI mode for costing).
	Canonical(peer netip.Addr) (netip.Addr, error)
	// Establish prepares connectivity with peer (e.g. runs a HIP base
	// exchange), blocking the calling process. The plain fabric is a
	// no-op. It returns the CPU cost already charged (informational).
	Establish(p *netsim.Proc, peer netip.Addr) error
	// Send transmits one wire unit to the peer and returns the CPU cost
	// the stack should charge for it. Called from the pump process.
	// Send takes ownership of data: the fabric (or the network it hands
	// the buffer to) may recycle it into netsim's buffer pool, so the
	// caller must not touch data afterwards.
	Send(peer netip.Addr, data []byte) (cost time.Duration, err error)
	// Attach gives the fabric its delivery callback: inbound wire units
	// are passed to deliver together with their decode CPU cost.
	// deliver must be called in scheduler context and transfers ownership
	// of data to the stack, which recycles it via netsim.PutBuf once the
	// stream core has consumed the segment.
	Attach(deliver func(peer netip.Addr, data []byte, cost time.Duration))
}

// segment mux header: local (sender) port, remote (receiver) port.
const muxHeader = 4

type connKey struct {
	peer       netip.Addr
	localPort  uint16
	remotePort uint16
}

// less orders keys (peer, localPort, remotePort) — a stable sort key for
// deterministic timer firing.
func (k connKey) less(o connKey) bool {
	if c := k.peer.Compare(o.peer); c != 0 {
		return c < 0
	}
	if k.localPort != o.localPort {
		return k.localPort < o.localPort
	}
	return k.remotePort < o.remotePort
}

// Stack is the per-node stream transport.
type Stack struct {
	sim    *netsim.Sim
	node   *netsim.Node
	fabric Fabric

	conns     map[connKey]*Conn
	listeners map[uint16]*Listener
	nextPort  uint16

	pending []inSeg // delivered, not yet serviced
	// dirty conns (Conn.dirty is the membership test) are flushed in marking
	// order: a map range here would emit packets in Go's randomized map order
	// and break the simulator's run-to-run determinism (the experiments
	// package's same-seed referee checks it).
	dirtyQ []*Conn
	debt   time.Duration // CPU cost not yet charged
	// armed holds the per-conn timer deadlines as a flat list: every
	// service pass scans it for the minimum, and a slice walk beats ranging
	// a map there (deterministic order, no iterator, cache-friendly).
	// Conn.armedIdx gives O(1) re-arm/disarm.
	armed []armedConn

	// Run-to-completion service state. kicked coalesces wake requests
	// into one scheduled service pass; charging serializes passes behind
	// an in-flight async CPU charge, so modeled compute still delays
	// segment processing exactly as the old pump process did.
	kicked       bool
	charging     bool
	serviceFn    func() // bound s.service, scheduled by kick
	chargeDoneFn func() // bound s.chargeDone, runs when a CPU charge ends
	timer        *netsim.Timer
	due          []*Conn // scratch for timerFire, reused across fires

	closed bool
}

// inSeg holds one delivered wire unit. data is the FULL buffer including
// the mux header — keeping the original slice (not a sub-slice) preserves
// its capacity so PutBuf returns it to the right pool class after the
// segment is consumed.
type inSeg struct {
	key  connKey
	data []byte
}

// NewStack creates a stream stack on node over the given fabric. All
// stack-side work runs as scheduler callbacks; no process is spawned.
func NewStack(node *netsim.Node, fabric Fabric) *Stack {
	s := &Stack{
		sim:       node.Net().Sim(),
		node:      node,
		fabric:    fabric,
		conns:     make(map[connKey]*Conn),
		listeners: make(map[uint16]*Listener),
		nextPort:  40000,
	}
	s.serviceFn = s.service
	s.chargeDoneFn = s.chargeDone
	s.timer = s.sim.NewTimer(s.timerFire)
	fabric.Attach(s.deliver)
	return s
}

// Node returns the owning node.
func (s *Stack) Node() *netsim.Node { return s.node }

// deliver receives one wire unit from the fabric (scheduler context).
func (s *Stack) deliver(peer netip.Addr, data []byte, cost time.Duration) {
	if s.closed || len(data) < muxHeader {
		return
	}
	// Sender's local port is our remote port and vice versa.
	remotePort := binary.BigEndian.Uint16(data[0:])
	localPort := binary.BigEndian.Uint16(data[2:])
	key := connKey{peer: peer, localPort: localPort, remotePort: remotePort}
	s.debt += cost
	s.pending = append(s.pending, inSeg{key: key, data: data})
	s.kick()
}

// kick schedules a service pass at the current virtual time, coalescing
// any number of wake requests into one. Runs in any context.
func (s *Stack) kick() {
	if s.kicked || s.closed {
		return
	}
	s.kicked = true
	s.sim.At(s.sim.Now(), s.serviceFn)
}

// markDirty queues c for flushing exactly once, preserving marking order.
func (s *Stack) markDirty(c *Conn) {
	if !c.dirty {
		c.dirty = true
		s.dirtyQ = append(s.dirtyQ, c)
	}
}

// service is one run-to-completion pass of the stack's kernel work: charge
// accumulated CPU debt, feed inbound segments to connections, packetize
// outbound data, and re-arm the deadline timer. It runs in scheduler
// context and never blocks; modeled CPU time is charged asynchronously,
// and processing resumes when the charge completes — the same ordering
// the old pump process enforced by blocking on CPU().Use.
func (s *Stack) service() {
	s.kicked = false
	if s.closed || s.charging {
		return
	}
	if s.debt > 0 {
		s.charging = true
		d := s.debt
		s.debt = 0
		s.node.CPU().UseAsync(d, s.chargeDoneFn)
		return
	}
	// Inbound segments. Indexed loop: a loopback flush below (or a
	// self-addressed send) may append while we iterate.
	for i := 0; i < len(s.pending); i++ {
		in := s.pending[i]
		s.handleSegment(in)
		// The stream core copies everything it keeps out of the
		// segment, so the wire buffer can be recycled now.
		netsim.PutBuf(in.data)
	}
	s.pending = s.pending[:0]
	// Outbound for dirty conns, in marking order (determinism: a map
	// range here would emit packets in randomized order). Indexed, and
	// reset rather than resliced from the front, so the queue keeps its
	// array: a flush may mark more conns while we iterate.
	for i := 0; i < len(s.dirtyQ); i++ {
		c := s.dirtyQ[i]
		s.dirtyQ[i] = nil
		c.dirty = false
		s.flush(c)
	}
	s.dirtyQ = s.dirtyQ[:0]
	// Flushing charges send costs to debt; new inbound may have arrived
	// via loopback. Either way, run another pass.
	if s.debt > 0 || len(s.pending) > 0 || len(s.dirtyQ) > 0 {
		s.kick()
	}
	s.rearmTimer()
}

// chargeDone runs when an async CPU charge completes.
func (s *Stack) chargeDone() {
	s.charging = false
	s.kick()
}

// armedConn is one entry in the armed-timer list.
type armedConn struct {
	c  *Conn
	at netsim.VTime
}

// arm points c's timer at deadline, updating in place when already armed.
func (s *Stack) arm(c *Conn, at netsim.VTime) {
	if c.armedIdx >= 0 {
		s.armed[c.armedIdx].at = at
		return
	}
	c.armedIdx = len(s.armed)
	s.armed = append(s.armed, armedConn{c: c, at: at})
}

// disarm drops c's timer entry by swap-removal, fixing the moved entry's
// index.
func (s *Stack) disarm(c *Conn) {
	i := c.armedIdx
	if i < 0 {
		return
	}
	last := len(s.armed) - 1
	if i != last {
		s.armed[i] = s.armed[last]
		s.armed[i].c.armedIdx = i
	}
	s.armed = s.armed[:last]
	c.armedIdx = -1
}

// rearmTimer points the stack's timer at the earliest armed conn deadline
// (or disarms it), dropping entries for conns that finished closing.
func (s *Stack) rearmTimer() {
	var next netsim.VTime
	for i := 0; i < len(s.armed); {
		e := s.armed[i]
		if e.c.closedByUser && e.c.inner.State() == stream.StateClosed {
			s.disarm(e.c) // swap-removal: re-examine index i
			continue
		}
		if next == 0 || e.at < next {
			next = e.at
		}
		i++
	}
	if next == 0 {
		s.timer.Stop()
		return
	}
	s.timer.Reset(next)
}

// timerFire runs when the earliest conn deadline passes. Due conns are
// collected and sorted by connection key before firing, so the
// retransmissions they queue flush in a stable order regardless of the
// armed list's arm-history order.
func (s *Stack) timerFire() {
	if s.closed {
		return
	}
	now := s.sim.Now()
	due := s.due[:0]
	for _, e := range s.armed {
		if e.at <= now {
			due = append(due, e.c)
		}
	}
	sort.Slice(due, func(i, j int) bool { return due[i].key.less(due[j].key) })
	for _, c := range due {
		s.disarm(c)
		c.inner.OnTimer(now)
		s.markDirty(c)
	}
	s.due = due[:0]
	s.kick()
	s.rearmTimer()
}

// handleSegment routes an inbound segment to a conn or listener.
func (s *Stack) handleSegment(in inSeg) {
	seg, err := stream.ParseSegment(in.data[muxHeader:])
	if err != nil {
		return
	}
	c, ok := s.conns[in.key]
	if !ok {
		// New connection? Only for SYN to a listener.
		if seg.Flags&stream.FlagSYN == 0 || seg.Flags&stream.FlagACK != 0 {
			return
		}
		l, ok := s.listeners[in.key.localPort]
		if !ok || len(l.backlog) >= l.maxBacklog {
			return // silently drop; dialer times out (or RST later)
		}
		c = s.newConn(in.key)
		l.backlog = append(l.backlog, c)
		l.wq.WakeOne()
	}
	c.inner.OnSegment(seg, s.sim.Now())
	s.markDirty(c)
	c.signal()
}

// flush drains a conn's outgoing segments through the fabric (scheduler
// context). Send costs accumulate as debt, charged by the next service
// pass — the packets are already on the wire, but further stack work
// waits for the CPU, as it did behind the pump's blocking charge.
func (s *Stack) flush(c *Conn) {
	segs, deadline := c.inner.Poll(s.sim.Now())
	var cost time.Duration
	for _, seg := range segs {
		wire := netsim.GetBuf(muxHeader + stream.HeaderSize + len(seg.Payload))
		binary.BigEndian.PutUint16(wire[0:], c.key.localPort)
		binary.BigEndian.PutUint16(wire[2:], c.key.remotePort)
		seg.MarshalInto(wire[muxHeader:])
		sc, err := s.fabric.Send(c.key.peer, wire)
		if err != nil {
			c.inner.Abort()
			break
		}
		cost += sc
	}
	s.debt += cost
	if deadline > 0 {
		s.arm(c, deadline)
	} else {
		s.disarm(c)
	}
	c.signal()
	// Garbage-collect fully closed conns.
	st := c.inner.State()
	if st == stream.StateClosed || st == stream.StateReset {
		if c.closedByUser {
			delete(s.conns, c.key)
		}
	}
}

func (s *Stack) newConn(key connKey) *Conn {
	c := &Conn{
		stack:    s,
		key:      key,
		inner:    stream.New(stream.Config{}, uint32(s.sim.Rand().Int63())),
		rq:       netsim.NewWaitQueue(s.sim),
		wq:       netsim.NewWaitQueue(s.sim),
		armedIdx: -1,
	}
	s.conns[key] = c
	return c
}

func (s *Stack) allocPort() uint16 {
	for {
		s.nextPort++
		if s.nextPort < 40000 {
			s.nextPort = 40000
		}
		free := true
		for k := range s.conns {
			if k.localPort == s.nextPort {
				free = false
				break
			}
		}
		if _, used := s.listeners[s.nextPort]; !used {
			if free {
				return s.nextPort
			}
		}
	}
}

// Dial opens a stream to peer:port, blocking p until established or the
// timeout elapses (timeout <= 0 waits forever). peer may be an IP, a HIT
// or an LSI, depending on the fabric.
func (s *Stack) Dial(p *netsim.Proc, peer netip.Addr, port uint16, timeout time.Duration) (*Conn, error) {
	canon, err := s.fabric.Canonical(peer)
	if err != nil {
		return nil, err
	}
	if err := s.fabric.Establish(p, canon); err != nil {
		return nil, err
	}
	key := connKey{peer: canon, localPort: s.allocPort(), remotePort: port}
	c := s.newConn(key)
	c.inner.Open(p.Now())
	s.markDirty(c)
	s.kick()
	deadline := p.Sim().Deadline(timeout)
	for !c.inner.Established() {
		if c.inner.State() == stream.StateReset {
			delete(s.conns, key)
			return nil, ErrRefused
		}
		if c.rq.WaitUntil(p, deadline) {
			delete(s.conns, key)
			return nil, ErrTimeout
		}
	}
	return c, nil
}

// Listener accepts inbound connections on a port.
type Listener struct {
	stack      *Stack
	port       uint16
	backlog    []*Conn
	maxBacklog int
	wq         *netsim.WaitQueue
	closed     bool
}

// Listen binds a listener on port.
func (s *Stack) Listen(port uint16) (*Listener, error) {
	if _, used := s.listeners[port]; used {
		return nil, ErrPortInUse
	}
	l := &Listener{stack: s, port: port, maxBacklog: 128, wq: netsim.NewWaitQueue(s.sim)}
	s.listeners[port] = l
	return l, nil
}

// MustListen is Listen that panics on error.
func (s *Stack) MustListen(port uint16) *Listener {
	l, err := s.Listen(port)
	if err != nil {
		panic(err)
	}
	return l
}

// Accept blocks p until a connection arrives (it may still be mid
// handshake; Reads will block until data flows).
func (l *Listener) Accept(p *netsim.Proc, timeout time.Duration) (*Conn, error) {
	p.MayPark()
	deadline := p.Sim().Deadline(timeout)
	for len(l.backlog) == 0 {
		if l.closed {
			return nil, ErrClosed
		}
		if l.wq.WaitUntil(p, deadline) {
			return nil, ErrTimeout
		}
	}
	c := l.backlog[0]
	l.backlog = l.backlog[1:]
	return c, nil
}

// Close stops the listener. Conns that arrived but were never accepted
// are reset and forgotten, so their dialers do not wait forever.
func (l *Listener) Close() {
	if l.closed {
		return
	}
	l.closed = true
	delete(l.stack.listeners, l.port)
	for _, c := range l.backlog {
		c.Abort()
	}
	l.backlog = nil
	l.wq.WakeAll()
}

// Conn is a blocking stream connection.
type Conn struct {
	stack        *Stack
	key          connKey
	inner        *stream.Conn
	rq, wq       *netsim.WaitQueue
	closedByUser bool
	// The stack's per-conn bookkeeping: queued in dirtyQ, and the index in
	// armed (-1 when unarmed).
	dirty    bool
	armedIdx int
}

// signal wakes blocked readers/writers according to conn state.
func (c *Conn) signal() {
	if c.inner.Readable() {
		c.rq.WakeAll()
	}
	if c.inner.Writable() || c.inner.State() == stream.StateReset {
		c.wq.WakeAll()
	}
	if c.inner.Established() || c.inner.State() == stream.StateReset {
		c.rq.WakeAll() // dialers waiting for establishment
	}
}

// Read blocks p until data is available, EOF, or error.
func (c *Conn) Read(p *netsim.Proc, b []byte) (int, error) {
	p.MayPark()
	for {
		n, err := c.inner.Read(b)
		if n > 0 {
			if c.inner.MaybeWindowUpdate() {
				c.stack.markDirty(c)
				c.stack.kick()
			}
			return n, nil
		}
		switch err {
		case stream.ErrEOF:
			return 0, ErrClosed
		case stream.ErrReset:
			return 0, ErrReset
		}
		c.rq.Wait(p, 0)
	}
}

// Write blocks p until all of b is accepted into the send buffer.
func (c *Conn) Write(p *netsim.Proc, b []byte) (int, error) {
	p.MayPark()
	total := 0
	for len(b) > 0 {
		n, err := c.inner.Write(b)
		if err != nil {
			switch err {
			case stream.ErrReset:
				return total, ErrReset
			default:
				return total, ErrClosed
			}
		}
		total += n
		b = b[n:]
		if n > 0 {
			c.stack.markDirty(c)
			c.stack.kick()
		}
		if len(b) > 0 {
			c.wq.Wait(p, 0)
		}
	}
	return total, nil
}

// Close starts an orderly shutdown (buffered data still delivered).
func (c *Conn) Close() {
	if c.closedByUser {
		return
	}
	c.closedByUser = true
	c.inner.Close()
	c.stack.markDirty(c)
	c.stack.kick()
}

// Abort resets the connection immediately.
func (c *Conn) Abort() {
	c.inner.Abort()
	c.closedByUser = true
	c.stack.markDirty(c)
	c.stack.kick()
}

// Stats exposes the underlying stream counters.
func (c *Conn) Stats() (sent, rcvd, retransmits uint64) {
	return c.inner.BytesSent, c.inner.BytesRcvd, c.inner.Retransmits + c.inner.FastRetransmits
}

// Bind returns an io.ReadWriteCloser view of the connection for the given
// process, so byte-oriented protocol code (HTTP, TLS) can run over
// simulated connections unchanged.
func (c *Conn) Bind(p *netsim.Proc) *BoundConn { return &BoundConn{c: c, p: p} }

// BoundConn is a Conn bound to one process.
type BoundConn struct {
	c *Conn
	p *netsim.Proc
}

// Read implements io.Reader.
func (b *BoundConn) Read(buf []byte) (int, error) { return b.c.Read(b.p, buf) }

// Write implements io.Writer.
func (b *BoundConn) Write(buf []byte) (int, error) { return b.c.Write(b.p, buf) }

// Close implements io.Closer.
func (b *BoundConn) Close() error {
	b.c.Close()
	return nil
}

// Abort resets the connection immediately, waking blocked readers and
// writers with ErrReset.
func (b *BoundConn) Abort() { b.c.Abort() }

// Proc returns the currently bound process.
func (b *BoundConn) Proc() *netsim.Proc { return b.p }

// Rebind transfers the view to another process (connection pooling: a
// different handler process reuses a persistent connection). The caller
// must guarantee the previous process no longer uses the view.
func (b *BoundConn) Rebind(p *netsim.Proc) { b.p = p }

// --- Plain fabric ---

// PlainPort is the well-known simulated UDP port carrying plain segments
// (the "TCP module" of a node).
const PlainPort = 6

// PlainFabric carries segments over simulated UDP with no protection: the
// paper's "basic" scenario.
type PlainFabric struct {
	node    *netsim.Node
	sock    *netsim.UDPSocket
	deliver func(peer netip.Addr, data []byte, cost time.Duration)
	// PerPacketCost models bare packet-processing CPU (no crypto).
	PerPacketCost time.Duration
}

// NewPlainFabric binds the plain fabric on node.
func NewPlainFabric(node *netsim.Node) *PlainFabric {
	f := &PlainFabric{node: node}
	f.sock = node.MustBindUDP(PlainPort)
	f.sock.Handler = func(dg netsim.Datagram) {
		if f.deliver != nil {
			f.deliver(dg.Src.Addr(), dg.Payload, f.PerPacketCost)
		}
	}
	return f
}

// Rehome follows the node to a new primary address (VM migration): new
// segments source from the current locator. Connections keyed to the old
// address are dead anyway — their path left with the old attachment.
func (f *PlainFabric) Rehome() { f.sock.Rehome() }

// Canonical is the identity for plain transport.
func (f *PlainFabric) Canonical(peer netip.Addr) (netip.Addr, error) { return peer, nil }

// Establish is a no-op for plain transport.
func (f *PlainFabric) Establish(p *netsim.Proc, peer netip.Addr) error { return nil }

// Send transmits a segment to the peer's plain port.
func (f *PlainFabric) Send(peer netip.Addr, data []byte) (time.Duration, error) {
	f.sock.SendTo(netip.AddrPortFrom(peer, PlainPort), data)
	return f.PerPacketCost, nil
}

// Attach installs the delivery callback.
func (f *PlainFabric) Attach(deliver func(peer netip.Addr, data []byte, cost time.Duration)) {
	f.deliver = deliver
}
