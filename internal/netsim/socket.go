package netsim

import (
	"encoding/binary"
	"errors"
	"net/netip"
	"time"
)

// Errors returned by socket operations.
var (
	ErrTimeout     = errors.New("netsim: operation timed out")
	ErrPortInUse   = errors.New("netsim: port already bound")
	ErrSocketClose = errors.New("netsim: socket closed")
)

// Datagram is one received UDP payload with its source.
type Datagram struct {
	Src     netip.AddrPort
	Payload []byte
}

// UDPSocket is a bound simulated UDP endpoint.
type UDPSocket struct {
	node   *Node
	local  netip.AddrPort
	buf    []Datagram
	maxBuf int
	wq     *WaitQueue
	closed bool
	// ExtraSize is added to every sent packet's wire size; used by
	// encapsulating layers (e.g. Teredo) to model header overhead.
	ExtraSize int
	// Handler, when non-nil, receives datagrams in scheduler context
	// instead of buffering them for RecvFrom. It must not block.
	Handler func(dg Datagram)
}

// BindUDP binds a UDP socket on port (0 picks an ephemeral port). The local
// address is the node's first interface address.
func (nd *Node) BindUDP(port uint16) (*UDPSocket, error) {
	if port == 0 {
		for {
			nd.nextPort++
			if nd.nextPort < 32768 {
				nd.nextPort = 32768
			}
			if _, used := nd.udp[nd.nextPort]; !used {
				port = nd.nextPort
				break
			}
		}
	} else if _, used := nd.udp[port]; used {
		return nil, ErrPortInUse
	}
	s := &UDPSocket{
		node:   nd,
		local:  netip.AddrPortFrom(nd.Addr(), port),
		maxBuf: 512,
		wq:     NewWaitQueue(nd.net.sim),
	}
	nd.udp[port] = s
	return s, nil
}

// MustBindUDP is BindUDP that panics on error (for topology setup code).
func (nd *Node) MustBindUDP(port uint16) *UDPSocket {
	s, err := nd.BindUDP(port)
	if err != nil {
		panic(err)
	}
	return s
}

// LocalAddr returns the bound address.
func (s *UDPSocket) LocalAddr() netip.AddrPort { return s.local }

// Rehome re-binds the socket's source address to the node's current
// primary address, keeping the port. Sockets capture their source at bind
// time, so a live-migrated VM calls this (after PromoteAddr) to stop
// sourcing datagrams from its abandoned locator.
func (s *UDPSocket) Rehome() {
	s.local = netip.AddrPortFrom(s.node.Addr(), s.local.Port())
}

// Node returns the owning node.
func (s *UDPSocket) Node() *Node { return s.node }

// Close unbinds the socket and wakes blocked receivers.
func (s *UDPSocket) Close() {
	if s.closed {
		return
	}
	s.closed = true
	delete(s.node.udp, s.local.Port())
	s.wq.WakeAll()
}

// SendTo transmits payload to dst. It runs in scheduler context and does
// not block; CPU cost is not charged here (callers running as processes
// should charge per-packet CPU via the node's CPU explicitly, which the
// higher-level conn types do).
func (s *UDPSocket) SendTo(dst netip.AddrPort, payload []byte) {
	if s.closed {
		return
	}
	s.node.SendRaw(ProtoUDP, s.local, dst, payload, s.ExtraSize+8)
}

// enqueue delivers a packet into the socket buffer (scheduler context).
func (s *UDPSocket) enqueue(pkt *Packet) {
	if s.closed {
		return
	}
	dg := Datagram{Src: pkt.Src, Payload: pkt.Payload}
	if s.Handler != nil {
		s.Handler(dg)
		return
	}
	if len(s.buf) >= s.maxBuf {
		s.node.net.trace(TraceDrop, s.node, pkt, "socket buffer full")
		return
	}
	s.buf = append(s.buf, dg)
	s.wq.WakeOne()
}

// RecvFrom blocks p until a datagram arrives or timeout elapses
// (timeout <= 0 blocks forever).
func (s *UDPSocket) RecvFrom(p *Proc, timeout time.Duration) (Datagram, error) {
	p.MayPark()
	deadline := p.sim.Deadline(timeout)
	for len(s.buf) == 0 {
		if s.closed {
			return Datagram{}, ErrSocketClose
		}
		if s.wq.WaitUntil(p, deadline) {
			return Datagram{}, ErrTimeout
		}
	}
	dg := s.buf[0]
	s.buf = s.buf[1:]
	return dg, nil
}

// --- echo ---

// EchoWait is one outstanding echo request. It serves every ping in the
// tree (ICMP here, in-tunnel ESP in hipsim, Teredo): the sender creates it
// when the request leaves, files it under the echo's id and Waits; the
// reply handler calls Done.
type EchoWait struct {
	wq   WaitQueue
	sent VTime
	rtt  time.Duration
	done bool
}

// NewEchoWait starts the round-trip clock at the current virtual time.
func NewEchoWait(s *Sim) *EchoWait { return &EchoWait{wq: WaitQueue{s: s}, sent: s.now} }

// Done records the reply's arrival and wakes the sender (scheduler
// context). Only the first call counts.
func (w *EchoWait) Done() {
	if !w.done {
		w.done = true
		w.rtt = w.wq.s.now - w.sent
		w.wq.WakeAll()
	}
}

// Wait blocks p until Done or the timeout and returns the round-trip time.
func (w *EchoWait) Wait(p *Proc, timeout time.Duration) (time.Duration, error) {
	p.MayPark()
	if !w.done && w.wq.Wait(p, timeout) {
		return 0, ErrTimeout
	}
	return w.rtt, nil
}

// icmpEcho payload layout: [0]=type (8 request, 0 reply), then 8-byte id.
const (
	icmpEchoRequest = 8
	icmpEchoReply   = 0
)

// Ping sends an ICMP echo of the given payload size to dst and waits for
// the reply, returning the RTT. It blocks the calling process.
func (nd *Node) Ping(p *Proc, dst netip.Addr, size int, timeout time.Duration) (time.Duration, error) {
	nd.echoSeq++
	id := nd.echoSeq
	w := NewEchoWait(nd.net.sim)
	nd.echoes[id] = w
	defer delete(nd.echoes, id)
	if size < 9 {
		size = 9
	}
	payload := make([]byte, size)
	payload[0] = icmpEchoRequest
	binary.BigEndian.PutUint64(payload[1:9], id)
	src := netip.AddrPortFrom(nd.Addr(), 0)
	nd.SendRaw(ProtoICMP, src, netip.AddrPortFrom(dst, 0), payload, 0)
	return w.Wait(p, timeout)
}

func (nd *Node) handleICMP(pkt *Packet) {
	if len(pkt.Payload) < 9 {
		return
	}
	switch pkt.Payload[0] {
	case icmpEchoRequest:
		reply := make([]byte, len(pkt.Payload))
		copy(reply, pkt.Payload)
		reply[0] = icmpEchoReply
		nd.SendRaw(ProtoICMP, netip.AddrPortFrom(pkt.Dst.Addr(), 0), netip.AddrPortFrom(pkt.Src.Addr(), 0), reply, 0)
	case icmpEchoReply:
		if w := nd.echoes[binary.BigEndian.Uint64(pkt.Payload[1:9])]; w != nil {
			w.Done()
		}
	}
}
