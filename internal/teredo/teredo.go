// Package teredo implements RFC 4380 Teredo tunneling inside the
// simulator: IPv6 connectivity over UDP/IPv4 through NATs. The paper uses
// Teredo (instead of HIP's then-unimplemented native NAT traversal) to let
// "power users" behind NATs reach cloud VMs, and measures its latency
// penalty in Figure 3.
//
// The package provides the qualification procedure (router
// solicitation/advertisement with origin indication), Teredo address
// construction with the RFC's obfuscated mapped address/port, bubble
// packets for direct paths between clients behind cone NATs, a combined
// server/relay, and an underlay adapter so the HIP fabric can run
// HIT-over-Teredo.
package teredo

import (
	"encoding/binary"
	"errors"
	"net/netip"
	"time"

	"hipcloud/internal/netsim"
)

// ServerPort is the well-known Teredo UDP port.
const ServerPort uint16 = 3544

// Prefix is the Teredo IPv6 prefix 2001:0000::/32.
var Prefix = netip.MustParsePrefix("2001:0000::/32")

// Errors returned by the package.
var (
	ErrNotQualified = errors.New("teredo: client not qualified")
	ErrNotTeredo    = errors.New("teredo: address is not a Teredo address")
	ErrTimeout      = errors.New("teredo: qualification timed out")
)

// MakeAddress builds the Teredo IPv6 address for a client of server,
// observed at the external (mapped) addr/port. Flags: cone bit only.
func MakeAddress(server netip.Addr, mapped netip.AddrPort, cone bool) netip.Addr {
	var a [16]byte
	a[0], a[1] = 0x20, 0x01 // 2001:0000::/32
	srv := server.As4()
	copy(a[4:8], srv[:])
	if cone {
		a[8] = 0x80
	}
	binary.BigEndian.PutUint16(a[10:12], ^mapped.Port())
	m4 := mapped.Addr().As4()
	for i := 0; i < 4; i++ {
		a[12+i] = ^m4[i]
	}
	return netip.AddrFrom16(a)
}

// ParseAddress extracts the embedded server and mapped endpoint.
func ParseAddress(a netip.Addr) (server netip.Addr, mapped netip.AddrPort, cone bool, err error) {
	if !a.Is6() || !Prefix.Contains(a) {
		return netip.Addr{}, netip.AddrPort{}, false, ErrNotTeredo
	}
	b := a.As16()
	server = netip.AddrFrom4([4]byte{b[4], b[5], b[6], b[7]})
	cone = b[8]&0x80 != 0
	port := ^binary.BigEndian.Uint16(b[10:12])
	var m4 [4]byte
	for i := 0; i < 4; i++ {
		m4[i] = ^b[12+i]
	}
	mapped = netip.AddrPortFrom(netip.AddrFrom4(m4), port)
	return server, mapped, cone, nil
}

// IsTeredo reports whether a is in the Teredo prefix.
func IsTeredo(a netip.Addr) bool { return a.Is6() && Prefix.Contains(a) }

// --- wire format over UDP ---
//
// Teredo messages: [type][body]
//   typeRS:   router solicitation (empty body)
//   typeRA:   router advertisement: origin = addr(4) port(2)
//   typeData: tunneled packet: proto(1) src v6(16) dst v6(16) payload
//   typeBubble: proto 59 data packet with empty payload (direct-path punch)

const (
	typeRS   byte = 1
	typeRA   byte = 2
	typeData byte = 3
)

// dataHeader is the tunneled-packet header length.
const dataHeader = 1 + 1 + 16 + 16

// TunnelOverhead is the modeled extra wire bytes per tunneled packet
// (IPv6 header + UDP encapsulation beyond the simulator's base headers).
const TunnelOverhead = 48

func encodeData(proto netsim.Proto, src, dst netip.Addr, payload []byte) []byte {
	out := make([]byte, dataHeader+len(payload))
	out[0] = typeData
	out[1] = byte(proto)
	s, d := src.As16(), dst.As16()
	copy(out[2:18], s[:])
	copy(out[18:34], d[:])
	copy(out[dataHeader:], payload)
	return out
}

func decodeData(b []byte) (proto netsim.Proto, src, dst netip.Addr, payload []byte, ok bool) {
	if len(b) < dataHeader || b[0] != typeData {
		return 0, netip.Addr{}, netip.Addr{}, nil, false
	}
	var s, d [16]byte
	copy(s[:], b[2:18])
	copy(d[:], b[18:34])
	return netsim.Proto(b[1]), netip.AddrFrom16(s), netip.AddrFrom16(d), b[dataHeader:], true
}

// Server is a combined Teredo server/relay: it qualifies clients and
// relays tunneled packets between them (the paper notes Teredo's
// triangular routing as the source of its worst-case latency).
type Server struct {
	node *netsim.Node
	sock *netsim.UDPSocket
	// clients maps Teredo IPv6 addresses to their external endpoints.
	clients map[netip.Addr]netip.AddrPort
	// Relayed counts packets forwarded between clients.
	Relayed uint64
}

// NewServer starts a Teredo server on node (public address required).
func NewServer(node *netsim.Node) *Server {
	s := &Server{node: node, clients: make(map[netip.Addr]netip.AddrPort)}
	s.sock = node.MustBindUDP(ServerPort)
	s.sock.Handler = s.onPacket
	return s
}

// Addr returns the server's public IPv4 address.
func (s *Server) Addr() netip.Addr { return s.node.Addr() }

func (s *Server) onPacket(dg netsim.Datagram) {
	if len(dg.Payload) == 0 {
		return
	}
	switch dg.Payload[0] {
	case typeRS:
		// Origin indication: tell the client its mapped endpoint.
		ra := make([]byte, 7)
		ra[0] = typeRA
		m4 := dg.Src.Addr().As4()
		copy(ra[1:5], m4[:])
		binary.BigEndian.PutUint16(ra[5:7], dg.Src.Port())
		s.sock.SendTo(dg.Src, ra)
		// Learn the client's Teredo address eagerly (cone assumed until
		// the client proves otherwise; relaying only needs the mapping).
		addr := MakeAddress(s.Addr(), dg.Src, true)
		s.clients[addr] = dg.Src
	case typeData:
		_, src, dst, _, ok := decodeData(dg.Payload)
		if !ok {
			return
		}
		// Refresh the sender mapping and relay toward the destination.
		s.clients[src] = dg.Src
		ext, ok := s.clients[dst]
		if !ok {
			// Unknown client: derive from the Teredo address itself.
			_, mapped, _, err := ParseAddress(dst)
			if err != nil {
				return
			}
			ext = mapped
		}
		s.Relayed++
		s.sock.SendTo(ext, dg.Payload)
	}
}

// Client is a Teredo client on a (typically NATed) node.
type Client struct {
	node   *netsim.Node
	sock   *netsim.UDPSocket
	server netip.AddrPort
	addr   netip.Addr // our Teredo IPv6 address
	cone   bool

	qualified bool
	qualQ     *netsim.WaitQueue

	// taps receive decapsulated packets by protocol.
	taps map[netsim.Proto]func(src netip.Addr, payload []byte)
	// peers maps Teredo addresses to verified direct endpoints (after
	// bubble exchange through cone NATs).
	peers map[netip.Addr]netip.AddrPort
	// DirectPath enables bubble-based direct connectivity (both ends
	// behind cone NATs); off, everything relays through the server.
	DirectPath bool
	// Sent/Rcvd count tunneled data packets.
	Sent, Rcvd uint64
}

// NewClient creates a Teredo client using the given server.
func NewClient(node *netsim.Node, server netip.Addr) *Client {
	c := &Client{
		node:   node,
		server: netip.AddrPortFrom(server, ServerPort),
		qualQ:  netsim.NewWaitQueue(node.Net().Sim()),
		taps:   make(map[netsim.Proto]func(netip.Addr, []byte)),
		peers:  make(map[netip.Addr]netip.AddrPort),
	}
	c.sock = node.MustBindUDP(0)
	c.sock.ExtraSize = TunnelOverhead
	c.sock.Handler = c.onPacket
	return c
}

// Qualify runs the qualification procedure, blocking p until the client
// has a Teredo address or the timeout passes.
func (c *Client) Qualify(p *netsim.Proc, timeout time.Duration) error {
	deadline := p.Now() + timeout
	for !c.qualified {
		c.sock.SendTo(c.server, []byte{typeRS})
		if p.Now() >= deadline {
			return ErrTimeout
		}
		c.qualQ.WaitUntil(p, min(p.Now()+500*time.Millisecond, deadline)) // next solicitation
	}
	return nil
}

// Addr returns the client's Teredo IPv6 address (after qualification).
func (c *Client) Addr() netip.Addr { return c.addr }

// Qualified reports whether qualification completed.
func (c *Client) Qualified() bool { return c.qualified }

func (c *Client) onPacket(dg netsim.Datagram) {
	if len(dg.Payload) == 0 {
		return
	}
	switch dg.Payload[0] {
	case typeRA:
		if len(dg.Payload) < 7 {
			return
		}
		mapped := netip.AddrPortFrom(
			netip.AddrFrom4([4]byte{dg.Payload[1], dg.Payload[2], dg.Payload[3], dg.Payload[4]}),
			binary.BigEndian.Uint16(dg.Payload[5:7]))
		// Cone determination (simplified): if our mapped address equals a
		// previous observation we are at least cone-ish; the simulation
		// sets cone by NAT type implicitly. Advertise cone.
		c.cone = true
		c.addr = MakeAddress(c.server.Addr(), mapped, c.cone)
		c.qualified = true
		c.qualQ.WakeAll()
	case typeData:
		proto, src, dst, payload, ok := decodeData(dg.Payload)
		if !ok || dst != c.addr {
			return
		}
		// Learn the direct path when the packet came straight from the
		// peer's mapped endpoint (not via the server).
		if c.DirectPath && dg.Src != c.server {
			c.peers[src] = dg.Src
		}
		if proto == 59 { // bubble: reply once to open our NAT mapping
			if c.DirectPath && dg.Src == c.server {
				if _, mapped, _, err := ParseAddress(src); err == nil {
					c.sock.SendTo(mapped, encodeData(60, c.addr, src, nil))
				}
			}
			return
		}
		if proto == 60 { // bubble reply: direct path now known
			return
		}
		c.Rcvd++
		if tap := c.taps[proto]; tap != nil {
			tap(src, payload)
		}
	}
}

// Send tunnels payload to the Teredo peer dst.
func (c *Client) Send(proto netsim.Proto, dst netip.Addr, payload []byte) {
	if !c.qualified {
		return
	}
	pkt := encodeData(proto, c.addr, dst, payload)
	if ext, ok := c.peers[dst]; ok && c.DirectPath {
		c.Sent++
		c.sock.SendTo(ext, pkt)
		return
	}
	if c.DirectPath {
		// Kick off the bubble exchange for next time: a bubble through
		// the server asks the peer to punch back.
		c.sock.SendTo(c.server, encodeData(59, c.addr, dst, nil))
	}
	c.Sent++
	c.sock.SendTo(c.server, pkt)
}

// Tap registers a protocol handler (scheduler context).
func (c *Client) Tap(proto netsim.Proto, fn func(src netip.Addr, payload []byte)) {
	c.taps[proto] = fn
}

// LocalAddr implements the hipsim.Underlay interface.
func (c *Client) LocalAddr() netip.Addr { return c.addr }

// --- in-tunnel echo, for the paper's RTT-over-Teredo measurements ---

// EchoService installs an echo responder on the client (inner protocol
// ICMP): any echo request is answered in place.
func (c *Client) EchoService() {
	c.Tap(netsim.ProtoICMP, func(src netip.Addr, payload []byte) {
		if len(payload) >= 9 && payload[0] == 8 {
			reply := append([]byte(nil), payload...)
			reply[0] = 0
			c.Send(netsim.ProtoICMP, src, reply)
		}
	})
}

// Ping measures one in-tunnel RTT to the Teredo peer dst. The target must
// run EchoService. Only one Ping may be outstanding per client.
func (c *Client) Ping(p *netsim.Proc, dst netip.Addr, size int, timeout time.Duration) (time.Duration, error) {
	if !c.qualified {
		return 0, ErrNotQualified
	}
	if size < 9 {
		size = 9
	}
	w := netsim.NewEchoWait(c.node.Net().Sim())
	payload := make([]byte, size)
	payload[0] = 8
	seq := uint64(p.Now())
	binary.BigEndian.PutUint64(payload[1:9], seq)
	prev := c.taps[netsim.ProtoICMP]
	c.Tap(netsim.ProtoICMP, func(src netip.Addr, pl []byte) {
		if len(pl) >= 9 && pl[0] == 0 && binary.BigEndian.Uint64(pl[1:9]) == seq {
			w.Done()
			return
		}
		if prev != nil {
			prev(src, pl)
		}
	})
	defer c.Tap(netsim.ProtoICMP, prev)
	c.Send(netsim.ProtoICMP, dst, payload)
	rtt, err := w.Wait(p, timeout)
	if err != nil {
		return 0, ErrTimeout
	}
	return rtt, nil
}
