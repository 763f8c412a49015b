package netsim

import (
	"net/netip"
	"time"
)

// NATType selects the translation/filtering behaviour of a NAT middlebox.
type NATType int

// NAT behaviours of the classic STUN taxonomy that the simulations use.
// Both keep one external mapping per internal endpoint.
const (
	// NATFullCone: any external host may send to the mapped port.
	NATFullCone NATType = iota
	// NATPortRestricted: inbound must match an (address,port) previously
	// contacted.
	NATPortRestricted
)

func (t NATType) String() string {
	switch t {
	case NATFullCone:
		return "full-cone"
	case NATPortRestricted:
		return "port-restricted"
	}
	return "nat(?)"
}

type natKey struct {
	proto Proto
	in    netip.AddrPort
}

type natMapping struct {
	key      natKey
	external netip.AddrPort
	lastUsed VTime
	// peers records destinations contacted through this mapping, for
	// port-restricted filtering.
	peers map[netip.AddrPort]bool
}

// NAT is network address/port translation state attached to a middlebox
// node. The node must have exactly one inside interface; the external
// address is the first non-inside interface address.
type NAT struct {
	node     *Node
	typ      NATType
	external netip.Addr
	byKey    map[natKey]*natMapping
	byExt    map[uint16]*natMapping
	nextPort uint16
	timeout  time.Duration
	drops    uint64
}

// EnableNAT turns nd into a NAT middlebox of the given type. insideAddr
// must be one of nd's interface addresses; packets arriving on that
// interface are translated outbound, packets arriving on any other
// interface are matched against mappings.
func (nd *Node) EnableNAT(typ NATType, insideAddr netip.Addr) *NAT {
	nat := &NAT{
		node:     nd,
		typ:      typ,
		byKey:    make(map[natKey]*natMapping),
		byExt:    make(map[uint16]*natMapping),
		nextPort: 20000,
		timeout:  2 * time.Minute,
	}
	var marked bool
	for _, i := range nd.ifaces {
		if i.addr == insideAddr {
			i.inside = true
			marked = true
		} else if !nat.external.IsValid() {
			nat.external = i.addr
		}
	}
	if !marked {
		panic("netsim: EnableNAT: insideAddr is not an interface of " + nd.name)
	}
	if !nat.external.IsValid() {
		panic("netsim: EnableNAT: node has no outside interface")
	}
	nd.nat = nat
	nd.forward = true
	return nat
}

// Drops reports inbound packets rejected by filtering.
func (n *NAT) Drops() uint64 { return n.drops }

// Mappings reports the number of active mappings.
func (n *NAT) Mappings() int { return len(n.byKey) }

// Reset discards every active mapping (a middlebox reboot / conntrack
// flush — the NAT-rebinding fault of internal/faults). Inbound packets
// for old mappings drop until the inside host transmits again, and the
// re-punched mapping lands on a fresh external port.
func (n *NAT) Reset() {
	n.byKey = make(map[natKey]*natMapping)
	n.byExt = make(map[uint16]*natMapping)
}

// process translates pkt arriving on iface in, in place. It returns why
// the packet is dropped, or "" to continue routing it.
func (n *NAT) process(in *Iface, pkt *Packet) string {
	now := n.node.net.sim.now
	if in.inside {
		// Outbound: allocate or refresh a mapping and rewrite source.
		key := natKey{proto: pkt.Proto, in: pkt.Src}
		m := n.byKey[key]
		if m != nil && now-m.lastUsed > n.timeout {
			n.expire(m)
			m = nil
		}
		if m == nil {
			m = &natMapping{
				key:      key,
				external: netip.AddrPortFrom(n.external, n.allocPort()),
				peers:    make(map[netip.AddrPort]bool),
			}
			n.byKey[key] = m
			n.byExt[m.external.Port()] = m
		}
		m.lastUsed = now
		m.peers[pkt.Dst] = true
		pkt.Src = m.external
		return ""
	}
	// Inbound: must match a mapping on the external address.
	if pkt.Dst.Addr() != n.external {
		return "" // transit traffic not addressed to the NAT
	}
	m := n.byExt[pkt.Dst.Port()]
	if m == nil || now-m.lastUsed > n.timeout {
		if m != nil {
			n.expire(m)
		}
		return "nat: no mapping"
	}
	if n.typ == NATPortRestricted && !m.peers[pkt.Src] {
		return "nat: filtered"
	}
	m.lastUsed = now
	pkt.Dst = m.key.in
	return ""
}

func (n *NAT) allocPort() uint16 {
	for {
		n.nextPort++
		if n.nextPort < 20000 {
			n.nextPort = 20000
		}
		if _, used := n.byExt[n.nextPort]; !used {
			return n.nextPort
		}
	}
}

func (n *NAT) expire(m *natMapping) {
	delete(n.byKey, m.key)
	delete(n.byExt, m.external.Port())
}
