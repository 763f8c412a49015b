package netsim

import (
	"errors"
	"fmt"
	"net/netip"
	"time"
)

// Proto identifies the simulated layer-4 protocol of a packet.
type Proto uint8

// Simulated protocol numbers (mirroring IANA where one exists).
const (
	ProtoICMP Proto = 1
	ProtoUDP  Proto = 17
	ProtoESP  Proto = 50
	ProtoHIP  Proto = 139
)

func (p Proto) String() string {
	switch p {
	case ProtoICMP:
		return "icmp"
	case ProtoUDP:
		return "udp"
	case ProtoESP:
		return "esp"
	case ProtoHIP:
		return "hip"
	}
	return fmt.Sprintf("proto(%d)", uint8(p))
}

// Packet is a simulated datagram. Size is the on-wire size including all
// headers below the payload; it determines serialization delay.
//
// The network owns every Packet: SendRaw takes one from the simulation's
// freelist, and the network frees it once its journey ends (delivered,
// dropped, or still in flight at Shutdown). A tap, filter, fault function
// or tracer may read the packet and keep its Payload, but must not keep
// the *Packet past its call.
type Packet struct {
	Src, Dst netip.AddrPort
	Proto    Proto
	Payload  []byte
	Size     int
	TTL      int
	// ID is a unique packet id for traces.
	ID uint64

	free bool // on the freelist: a second freePacket panics
}

// HeaderOverhead is the modeled per-packet IPv4+L2 header cost in bytes.
const HeaderOverhead = 40

// DefaultTTL is the initial hop limit of simulated packets.
const DefaultTTL = 64

// Network is a collection of nodes connected by links.
type Network struct {
	sim    *Sim
	nodes  map[string]*Node
	byAddr map[netip.Addr]*Node
	pktID  uint64
}

// NewNetwork creates an empty network on s.
func NewNetwork(s *Sim) *Network {
	return &Network{sim: s, nodes: make(map[string]*Node), byAddr: make(map[netip.Addr]*Node)}
}

// Sim returns the owning simulation.
func (n *Network) Sim() *Sim { return n.sim }

// NodeByAddr returns the node owning addr, or nil.
func (n *Network) NodeByAddr(a netip.Addr) *Node { return n.byAddr[a] }

// Node is a simulated host, router or middlebox.
type Node struct {
	net     *Network
	name    string
	ifaces  []*Iface
	routes  []route
	forward bool
	cpu     *CPU

	udp      map[uint16]*UDPSocket
	nextPort uint16
	echoes   map[uint64]*EchoWait
	echoSeq  uint64
	nat      *NAT

	// Raw protocol taps: proto -> handler. Used by in-sim HIP/ESP stacks.
	rawTaps map[Proto]func(pkt *Packet)

	// Filter, when non-nil, inspects every packet arriving at the node
	// (before forwarding or delivery); returning false drops it. Used by
	// VLAN segmentation and firewall middleboxes.
	Filter func(pkt *Packet) bool

	// Down, when true, detaches the node from the network: it neither
	// sends nor receives (a crashed VM / powered-off host). Processes on
	// the node keep running; only its traffic dies. Toggled by
	// fault-injection layers (internal/faults, cloud.Crash).
	Down bool

	// FaultFilter, when non-nil, inspects every packet arriving at the
	// node ahead of Filter; returning false drops it. It is the
	// fault-injection analogue of Filter (partitions), kept separate so
	// injected faults never clobber a deployment's VLAN/firewall policy.
	FaultFilter func(pkt *Packet) bool

	// Stats
	rxPackets, txPackets uint64
	rxBytes, txBytes     uint64
}

type route struct {
	prefix  netip.Prefix
	via     *Iface
	nextHop netip.Addr // zero => directly attached
}

// Iface is one attachment point of a node; a link joins two ifaces.
type Iface struct {
	node *Node
	addr netip.Addr
	link *Link
	peer *Iface
	// tx models transmission serialization: the time this direction of the
	// link is busy until.
	busyUntil VTime
	// inside marks the private side of a NAT middlebox.
	inside bool
}

// Addr returns the interface address.
func (i *Iface) Addr() netip.Addr { return i.addr }

// Link connects two interfaces with symmetric latency/bandwidth and
// independent per-direction serialization.
type Link struct {
	Latency   time.Duration
	Bandwidth float64       // bytes per second; <=0 means infinite
	Jitter    time.Duration // uniform [0,Jitter) extra latency per packet
	// QueueLimit bounds the backlog of serialization delay; packets that
	// would wait longer are dropped (tail drop). Zero means unlimited.
	QueueLimit time.Duration

	// Down, when true, drops every packet offered to the link in either
	// direction (carrier loss / pulled cable). Toggled by fault-injection
	// schedules (internal/faults.FlapLink).
	Down bool

	// Fault, when non-nil, is consulted per packet once the link is up
	// and can drop, corrupt, duplicate or delay it (see FaultDecision).
	// It is the link's one random-impairment path: internal/faults
	// impairment windows install it, and a test that wants random loss
	// draws from the Sim's RNG inside it. Nil costs nothing on the hot
	// path.
	Fault func(pkt *Packet) FaultDecision

	a, b  *Iface
	drops uint64
}

// FaultDecision is a Link.Fault verdict for one packet.
type FaultDecision struct {
	// Drop discards the packet (counted in Link.Drops).
	Drop bool
	// Corrupt delivers a bit-flipped copy of the payload instead of the
	// original. The copy is freshly allocated — never drawn from the
	// buffer pool — because the receiver recycles what it consumes while
	// the sender may still retain the original (HIP retransmission
	// buffers); the original is abandoned in transit (see DESIGN.md §5).
	Corrupt bool
	// Duplicate delivers a second, pooled copy 1 µs after the first.
	Duplicate bool
	// Delay adds extra one-way latency for this packet only; delaying
	// some packets past their successors reorders the flow.
	Delay time.Duration
}

// Drops reports the number of packets dropped by loss or queue overflow.
func (l *Link) Drops() uint64 { return l.drops }

// AddNode creates a node. cores/speed configure its CPU (see CPU).
func (n *Network) AddNode(name string, cores int, speed float64) *Node {
	if _, dup := n.nodes[name]; dup {
		panic("netsim: duplicate node " + name)
	}
	nd := &Node{
		net:      n,
		name:     name,
		cpu:      NewCPU(n.sim, cores, speed),
		udp:      make(map[uint16]*UDPSocket),
		nextPort: 32768,
		echoes:   make(map[uint64]*EchoWait),
		rawTaps:  make(map[Proto]func(*Packet)),
	}
	n.nodes[name] = nd
	return nd
}

// AddRouter creates a forwarding node with ample CPU.
func (n *Network) AddRouter(name string) *Node {
	nd := n.AddNode(name, 8, 100)
	nd.forward = true
	return nd
}

// Name returns the node name.
func (nd *Node) Name() string { return nd.name }

// CPU returns the node's processor.
func (nd *Node) CPU() *CPU { return nd.cpu }

// Net returns the network the node belongs to.
func (nd *Node) Net() *Network { return nd.net }

// Addr returns the node's first address; it panics if the node has none.
func (nd *Node) Addr() netip.Addr {
	if len(nd.ifaces) == 0 {
		panic("netsim: node " + nd.name + " has no interfaces")
	}
	return nd.ifaces[0].addr
}

// PromoteAddr makes the interface owning a the node's primary — the
// address Addr() reports and the source new sockets bind to. Live
// migration promotes the fresh attachment so replies and control traffic
// stop sourcing from the abandoned locator. Reports whether a was found.
func (nd *Node) PromoteAddr(a netip.Addr) bool {
	for idx, i := range nd.ifaces {
		if i.addr != a {
			continue
		}
		copy(nd.ifaces[1:idx+1], nd.ifaces[:idx])
		nd.ifaces[0] = i
		return true
	}
	return false
}

// Connect links a and b with the given characteristics, assigning addrA and
// addrB to the new interfaces. It returns the link.
func (n *Network) Connect(a *Node, addrA netip.Addr, b *Node, addrB netip.Addr, l Link) *Link {
	link := &l
	ia := &Iface{node: a, addr: addrA, link: link}
	ib := &Iface{node: b, addr: addrB, link: link}
	ia.peer, ib.peer = ib, ia
	link.a, link.b = ia, ib
	a.ifaces = append(a.ifaces, ia)
	b.ifaces = append(b.ifaces, ib)
	n.byAddr[addrA] = a
	n.byAddr[addrB] = b
	// Host routes for the directly connected peer.
	a.routes = append(a.routes, route{prefix: netip.PrefixFrom(addrB, addrB.BitLen()), via: ia})
	b.routes = append(b.routes, route{prefix: netip.PrefixFrom(addrA, addrA.BitLen()), via: ib})
	return link
}

// LinkBetween returns the link directly connecting a and b (the first,
// when several exist), or nil — the handle fault schedules use to flap or
// impair a specific hop.
func (n *Network) LinkBetween(a, b *Node) *Link {
	for _, i := range a.ifaces {
		if i.peer != nil && i.peer.node == b {
			return i.link
		}
	}
	return nil
}

// AddRoute installs prefix -> nextHop reachable via the interface whose
// direct peer is nextHop.
func (nd *Node) AddRoute(prefix netip.Prefix, nextHop netip.Addr) {
	for _, i := range nd.ifaces {
		if i.peer != nil && i.peer.addr == nextHop {
			nd.routes = append(nd.routes, route{prefix: prefix, via: i, nextHop: nextHop})
			return
		}
	}
	panic(fmt.Sprintf("netsim: %s: next hop %v is not directly attached", nd.name, nextHop))
}

// AddDefaultRoute installs 0.0.0.0/0 and ::/0 via nextHop, replacing any
// existing default routes (so a migrated VM prefers its new gateway).
func (nd *Node) AddDefaultRoute(nextHop netip.Addr) {
	kept := nd.routes[:0]
	for _, r := range nd.routes {
		if r.prefix.Bits() != 0 {
			kept = append(kept, r)
		}
	}
	nd.routes = kept
	nd.AddRoute(netip.MustParsePrefix("0.0.0.0/0"), nextHop)
	nd.AddRoute(netip.MustParsePrefix("::/0"), nextHop)
}

// lookupRoute returns the longest-prefix-match route for dst.
func (nd *Node) lookupRoute(dst netip.Addr) (route, bool) {
	best := -1
	var out route
	for _, r := range nd.routes {
		if r.prefix.Contains(dst) && r.prefix.Bits() > best {
			best = r.prefix.Bits()
			out = r
		}
	}
	return out, best >= 0
}

// ownsAddr reports whether addr is local to the node.
func (nd *Node) ownsAddr(a netip.Addr) bool {
	for _, i := range nd.ifaces {
		if i.addr == a {
			return true
		}
	}
	return false
}

// TapRaw registers a handler receiving every locally delivered packet of
// the given protocol. Handlers run in scheduler context and must not block;
// they typically enqueue into a socket-like buffer and wake a process.
func (nd *Node) TapRaw(p Proto, fn func(pkt *Packet)) { nd.rawTaps[p] = fn }

// SendRaw emits a packet with the given protocol from this node. extraSize
// is added to len(payload)+HeaderOverhead to model encapsulation overheads.
func (nd *Node) SendRaw(proto Proto, src, dst netip.AddrPort, payload []byte, extraSize int) {
	n := nd.net
	n.pktID++
	pkt := n.sim.newPacket()
	*pkt = Packet{
		Src: src, Dst: dst, Proto: proto,
		Payload: payload,
		Size:    len(payload) + HeaderOverhead + extraSize,
		TTL:     DefaultTTL,
		ID:      n.pktID,
	}
	nd.txPackets++
	nd.txBytes += uint64(pkt.Size)
	nd.route(pkt)
}

// newPacket takes a packet from the simulation's freelist, or allocates
// one. The caller overwrites every field. Kept out of line, so that its
// allocation is one site, not one per caller.
//
//go:noinline
func (s *Sim) newPacket() *Packet {
	s.pktOut++
	if free := s.pktFree; len(free) > 0 {
		s.pktFree = free[:len(free)-1]
		return free[len(free)-1]
	}
	return new(Packet)
}

var errFreedTwice = errors.New("netsim: packet freed twice")

// freePacket ends pkt's journey: it is cleared, so that a reader that kept
// it reads an empty packet, and goes back on the freelist.
func (s *Sim) freePacket(pkt *Packet) {
	if pkt.free {
		panic(errFreedTwice)
	}
	*pkt = Packet{free: true}
	s.pktOut--
	s.pktFree = append(s.pktFree, pkt)
}

// drop ends pkt's journey at this node: it is traced and freed.
func (nd *Node) drop(pkt *Packet, why string) {
	nd.net.trace(TraceDrop, nd, pkt, why)
	nd.net.sim.freePacket(pkt)
}

// route forwards or delivers pkt from this node. Like transmit, receive
// and deliver, it consumes pkt: it frees it or passes it on.
func (nd *Node) route(pkt *Packet) {
	if nd.Down {
		nd.drop(pkt, "node down")
		return
	}
	if nd.ownsAddr(pkt.Dst.Addr()) {
		nd.deliver(pkt)
		return
	}
	r, ok := nd.lookupRoute(pkt.Dst.Addr())
	if !ok {
		nd.drop(pkt, "no route")
		return
	}
	nd.transmit(r.via, pkt)
}

// transmit sends pkt out via iface, modeling serialization, loss and
// propagation, then hands it to the peer node.
func (nd *Node) transmit(via *Iface, pkt *Packet) {
	l := via.link
	s := nd.net.sim
	if l.Down {
		l.drops++
		nd.drop(pkt, "link down")
		return
	}
	var fd FaultDecision
	if l.Fault != nil {
		fd = l.Fault(pkt)
		if fd.Drop {
			l.drops++
			nd.drop(pkt, "fault drop")
			return
		}
	}
	start := s.now
	if via.busyUntil > start {
		start = via.busyUntil
	}
	var tx time.Duration
	if l.Bandwidth > 0 {
		tx = time.Duration(float64(pkt.Size) / l.Bandwidth * float64(time.Second))
	}
	if l.QueueLimit > 0 && start-s.now > l.QueueLimit {
		l.drops++
		nd.drop(pkt, "queue overflow")
		return
	}
	via.busyUntil = start + tx
	delay := l.Latency + fd.Delay
	if l.Jitter > 0 {
		delay += time.Duration(s.rng.Int63n(int64(l.Jitter)))
	}
	if fd.Corrupt && len(pkt.Payload) > 0 {
		// Deliver a corrupted copy, not the original mutated in place:
		// senders may retain the payload for retransmission (HIP control
		// packets), so an in-place flip would poison every retry. The
		// original buffer is abandoned — the link cannot tell whether the
		// sender still owns it, so it must not recycle it into the pool.
		bad := s.newPacket()
		*bad = *pkt
		bad.Payload = GetBuf(len(pkt.Payload))
		copy(bad.Payload, pkt.Payload)
		bad.Payload[s.rng.Intn(len(bad.Payload))] ^= 1 << uint(s.rng.Intn(8))
		s.freePacket(pkt)
		pkt = bad
	}
	arrival := start + tx + delay
	peer := via.peer
	// Typed delivery event: the per-packet hot path schedules a recycled
	// event node, never a closure.
	s.scheduleDeliver(arrival, peer, pkt)
	if fd.Duplicate {
		dup := s.newPacket()
		*dup = *pkt
		// The duplicate needs its own payload: receivers may recycle a
		// packet's body into the buffer pool after consuming it, and two
		// deliveries of one backing array would double-free it. A pooled
		// copy is exactly right here — the receiver recycles it like any
		// other body.
		dup.Payload = GetBuf(len(pkt.Payload))
		copy(dup.Payload, pkt.Payload)
		s.scheduleDeliver(arrival+time.Microsecond, peer, dup)
	}
	if s.tracer != nil {
		nd.net.trace(TraceTx, nd, pkt, via.addr.String())
	}
}

// receive handles a packet arriving on iface in.
func (nd *Node) receive(in *Iface, pkt *Packet) {
	pkt.TTL--
	if pkt.TTL <= 0 {
		nd.drop(pkt, "ttl expired")
		return
	}
	if nd.Down {
		nd.drop(pkt, "node down")
		return
	}
	if nd.FaultFilter != nil && !nd.FaultFilter(pkt) {
		nd.drop(pkt, "fault filtered")
		return
	}
	if nd.Filter != nil && !nd.Filter(pkt) {
		nd.drop(pkt, "filtered")
		return
	}
	if nd.nat != nil {
		if why := nd.nat.process(in, pkt); why != "" {
			nd.nat.drops++
			nd.drop(pkt, why)
			return
		}
	}
	if nd.ownsAddr(pkt.Dst.Addr()) {
		nd.deliver(pkt)
		return
	}
	if !nd.forward {
		nd.drop(pkt, "not forwarding")
		return
	}
	nd.route(pkt)
}

// deliver hands a locally addressed packet to ICMP, a raw tap or a socket,
// then frees it.
func (nd *Node) deliver(pkt *Packet) {
	nd.rxPackets++
	nd.rxBytes += uint64(pkt.Size)
	nd.net.trace(TraceRx, nd, pkt, "")
	nd.dispatch(pkt)
	nd.net.sim.freePacket(pkt)
}

func (nd *Node) dispatch(pkt *Packet) {
	switch pkt.Proto {
	case ProtoICMP:
		nd.handleICMP(pkt)
		return
	}
	if tap := nd.rawTaps[pkt.Proto]; tap != nil {
		tap(pkt)
		return
	}
	if pkt.Proto == ProtoUDP {
		if sock := nd.udp[pkt.Dst.Port()]; sock != nil {
			sock.enqueue(pkt)
			return
		}
	}
	nd.net.trace(TraceDrop, nd, pkt, "no listener")
}

// Stats reports packet/byte counters for the node.
func (nd *Node) Stats() (rxPkts, txPkts, rxBytes, txBytes uint64) {
	return nd.rxPackets, nd.txPackets, nd.rxBytes, nd.txBytes
}
