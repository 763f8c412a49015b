// Package hipsim binds a HIP host (hipcloud/internal/hip) to a simulated
// node (hipcloud/internal/netsim): it is the "shim layer" of the paper.
//
// Applications address peers by HIT or LSI; the fabric resolves the
// identifier to a locator, runs the base exchange on first contact, seals
// every transport segment in BEET-mode ESP and charges all cryptographic
// work to the VM's simulated CPU. It implements simtcp.Fabric, so the
// same stream/HTTP/RUBiS code runs over plain, HIP and TLS transports.
package hipsim

import (
	"encoding/binary"
	"errors"
	"net/netip"
	"time"

	"hipcloud/internal/esp"
	"hipcloud/internal/hip"
	"hipcloud/internal/identity"
	"hipcloud/internal/netsim"
)

// Errors returned by the fabric.
var (
	ErrUnknownPeer = errors.New("hipsim: cannot resolve peer identifier")
	ErrBEXFailed   = errors.New("hipsim: base exchange failed")
	ErrBEXTimeout  = errors.New("hipsim: base exchange timed out")
)

// Registry maps HITs to current locators and LSIs to HITs — the role DNS
// HIP RRs (or static hosts files) play in a HIPL deployment.
type Registry struct {
	byHIT map[netip.Addr]netip.Addr // HIT -> locator
	lsis  *identity.LSIAllocator
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byHIT: make(map[netip.Addr]netip.Addr),
		lsis:  identity.NewLSIAllocator(),
	}
}

// Register binds a HIT to its locator and returns the HIT's LSI.
func (r *Registry) Register(hit, locator netip.Addr) netip.Addr {
	r.byHIT[hit] = locator
	lsi, err := r.lsis.Assign(hit)
	if err != nil {
		panic("hipsim: registering non-HIT: " + err.Error())
	}
	return lsi
}

// Update changes the locator of a HIT (VM migration).
func (r *Registry) Update(hit, locator netip.Addr) { r.byHIT[hit] = locator }

// Resolve turns a HIT or LSI into (HIT, locator, wasLSI).
func (r *Registry) Resolve(peer netip.Addr) (hit, locator netip.Addr, byLSI bool, err error) {
	if identity.IsLSI(peer) {
		h, ok := r.lsis.Lookup(peer)
		if !ok {
			return netip.Addr{}, netip.Addr{}, false, ErrUnknownPeer
		}
		peer, byLSI = h, true
	}
	if !identity.IsHIT(peer) {
		return netip.Addr{}, netip.Addr{}, false, ErrUnknownPeer
	}
	loc, ok := r.byHIT[peer]
	if !ok {
		return netip.Addr{}, netip.Addr{}, false, ErrUnknownPeer
	}
	return peer, loc, byLSI, nil
}

// LSI returns the LSI assigned to hit, allocating one if needed.
func (r *Registry) LSI(hit netip.Addr) netip.Addr {
	lsi, err := r.lsis.Assign(hit)
	if err != nil {
		panic(err)
	}
	return lsi
}

// Inner payload types carried inside ESP. The type byte rides as a
// TRAILER (last plaintext byte) rather than a prefix: the stream body
// handed upward is then a prefix sub-slice of the pooled decrypt buffer,
// keeping its full capacity so the stack can recycle it into the right
// netsim pool class. The framing is internal to this package (hipudp has
// its own), so both ends always agree.
const (
	innerStream byte = 1
	innerEchoRq byte = 2
	innerEchoRp byte = 3
)

// Underlay carries HIP control and ESP packets for a fabric. The default
// underlay sends directly on the node's interfaces; the Teredo underlay
// (hipcloud/internal/teredo) tunnels them in IPv6-over-UDP-over-IPv4, the
// paper's HIT(Teredo)/LSI(Teredo) configurations.
type Underlay interface {
	// LocalAddr is the locator the HIP host should announce.
	LocalAddr() netip.Addr
	// Send transmits a raw protocol payload to dst.
	Send(proto netsim.Proto, dst netip.Addr, payload []byte)
	// Tap registers the inbound handler for a protocol (scheduler ctx).
	Tap(proto netsim.Proto, fn func(src netip.Addr, payload []byte))
}

// nodeUnderlay sends directly over the simulated node.
type nodeUnderlay struct{ node *netsim.Node }

func (u nodeUnderlay) LocalAddr() netip.Addr { return u.node.Addr() }

func (u nodeUnderlay) Send(proto netsim.Proto, dst netip.Addr, payload []byte) {
	u.node.SendRaw(proto, netip.AddrPortFrom(u.node.Addr(), 0), netip.AddrPortFrom(dst, 0), payload, 0)
}

func (u nodeUnderlay) Tap(proto netsim.Proto, fn func(src netip.Addr, payload []byte)) {
	u.node.TapRaw(proto, func(pkt *netsim.Packet) { fn(pkt.Src.Addr(), pkt.Payload) })
}

// Fabric is the per-node HIP shim. It implements simtcp.Fabric.
type Fabric struct {
	node *netsim.Node
	host *hip.Host
	reg  *Registry
	ul   Underlay

	deliver func(peer netip.Addr, data []byte, cost time.Duration)

	ctlQ *hip.AdmissionQueue
	debt time.Duration
	// assocQ is woken on every association event; EstablishAt sleeps on it
	// and re-reads the association it is waiting for.
	assocQ *netsim.WaitQueue

	// Run-to-completion daemon state: the old kernel process is replaced
	// by a coalesced service pass (kick) plus one re-armable timer that
	// tracks the host's next deadline, with a 1s housekeeping bound for
	// rekey checks. charging serializes passes behind in-flight async CPU
	// charges, as the process did by blocking on CPU().Use.
	kicked       bool
	charging     bool
	serviceFn    func() // bound f.service
	chargeDoneFn func() // bound f.chargeDone
	timer        *netsim.Timer

	echoSeq uint64
	echoes  map[uint64]*netsim.EchoWait
	closed  bool
	// lsiPeers marks peers the local application addresses by LSI; every
	// packet on such flows pays the translation penalty in both
	// directions, as the paper measures.
	lsiPeers map[netip.Addr]bool
	// BEXTimeout bounds Establish (default 10s).
	BEXTimeout time.Duration
}

// DefaultCtlQueueMax bounds the per-fabric pending control-packet queue.
// While the daemon is busy (an async CPU charge in flight) arriving
// BEX/UPDATE packets accumulate here; past the bound the oldest are shed
// (hip.AdmissionQueue) rather than letting a re-contact herd grow the
// backlog — and the queue's depth feeds the responder's puzzle
// difficulty so shedding and hardening engage together.
const DefaultCtlQueueMax = 512

// New attaches a HIP host to a node with the direct underlay. The host's
// locator must equal the node's address; the HIT is registered in reg.
func New(node *netsim.Node, host *hip.Host, reg *Registry) *Fabric {
	return NewWithUnderlay(node, host, reg, nodeUnderlay{node})
}

// NewWithUnderlay attaches a HIP host to a node sending through the given
// underlay (e.g. a Teredo tunnel). The underlay's local address is
// registered as the HIT's locator.
func NewWithUnderlay(node *netsim.Node, host *hip.Host, reg *Registry, ul Underlay) *Fabric {
	sim := node.Net().Sim()
	f := &Fabric{
		node:       node,
		host:       host,
		reg:        reg,
		ul:         ul,
		ctlQ:       hip.NewAdmissionQueue(DefaultCtlQueueMax),
		assocQ:     netsim.NewWaitQueue(sim),
		echoes:     make(map[uint64]*netsim.EchoWait),
		lsiPeers:   make(map[netip.Addr]bool),
		BEXTimeout: 10 * time.Second,
	}
	f.serviceFn = f.service
	f.chargeDoneFn = f.chargeDone
	f.timer = sim.NewTimer(f.service)
	reg.Register(host.HIT(), ul.LocalAddr())
	ul.Tap(netsim.ProtoHIP, f.onControl)
	ul.Tap(netsim.ProtoESP, f.onData)
	// Arm the housekeeping timer so rekey checks happen even when idle.
	f.timer.Reset(sim.Now() + time.Second)
	return f
}

// sim returns the owning simulation.
func (f *Fabric) simOf() *netsim.Sim { return f.node.Net().Sim() }

// kick schedules a service pass at the current virtual time, coalescing
// any number of wake requests into one.
func (f *Fabric) kick() {
	if f.kicked || f.closed {
		return
	}
	f.kicked = true
	sim := f.simOf()
	sim.At(sim.Now(), f.serviceFn)
}

// Host returns the underlying HIP host.
func (f *Fabric) Host() *hip.Host { return f.host }

// onControl queues a HIP control packet for the next service pass,
// shedding the oldest pending packet when admission control is full.
func (f *Fabric) onControl(src netip.Addr, payload []byte) {
	if f.closed {
		return
	}
	f.ctlQ.Push(hip.Pending{Data: payload, Src: src})
	f.kick()
}

// CtlShed reports how many inbound control packets admission control has
// dropped (the responder's shed counter for storm experiments).
func (f *Fabric) CtlShed() uint64 { return f.ctlQ.Shed }

// onData decrypts an inbound ESP packet and routes the inner payload
// (scheduler context; decode cost is handed to the consumer as debt).
// The wire packet and, unless it is delivered upward, the decrypt buffer
// are recycled into the netsim buffer pool here.
func (f *Fabric) onData(src netip.Addr, raw []byte) {
	if f.closed {
		return
	}
	buf := netsim.GetBuf(len(raw))[:0]
	payload, peerHIT, err := f.host.OpenDataAppend(buf, raw, false)
	// The wire packet is dead once decrypted (or rejected): this fabric
	// is the packet's terminal consumer, so recycle the buffer the
	// sender drew from the pool.
	netsim.PutBuf(raw)
	cost := f.host.TakeCost()
	if err == nil && f.lsiPeers[peerHIT] {
		cost += f.host.LSIPenalty()
	}
	if err != nil {
		netsim.PutBuf(buf)
		f.debt += cost
		f.kick()
		return
	}
	if len(payload) == 0 {
		netsim.PutBuf(buf)
		return
	}
	inner, body := payload[len(payload)-1], payload[:len(payload)-1]
	switch inner {
	case innerStream:
		if f.deliver != nil {
			// Ownership of the decrypt buffer moves to the stack, which
			// recycles it after the stream core consumes the segment.
			f.deliver(peerHIT, body, cost)
		} else {
			netsim.PutBuf(buf)
		}
	case innerEchoRq:
		// Echo handling models processing latency directly: open + seal
		// (and LSI translation) delay the reply on the wire, as they do
		// for a real ping through the shim.
		reply := append(append([]byte(nil), body...), innerEchoRp)
		netsim.PutBuf(buf)
		out, dst, serr := f.host.SealData(peerHIT, reply, f.lsiPeers[peerHIT])
		total := cost + f.host.TakeCost()
		if serr == nil {
			f.node.Net().Sim().After(total, func() { f.sendESP(dst, out) })
		}
	case innerEchoRp:
		if len(body) >= 8 {
			if w := f.echoes[binary.BigEndian.Uint64(body)]; w != nil {
				f.simOf().After(cost, w.Done)
			}
		}
		netsim.PutBuf(buf)
	default:
		netsim.PutBuf(buf)
	}
}

func (f *Fabric) sendESP(dstLocator netip.Addr, espPkt []byte) {
	f.ul.Send(netsim.ProtoESP, dstLocator, espPkt)
}

// service is one run-to-completion pass of the HIP daemon: charge CPU for
// control-plane work, process queued control packets, fire due host
// timers, flush outgoing packets and dispatch events, then re-arm the
// deadline timer. Scheduler context; never blocks.
func (f *Fabric) service() {
	f.kicked = false
	if f.closed || f.charging {
		return
	}
	if f.debt > 0 {
		f.charging = true
		d := f.debt
		f.debt = 0
		f.node.CPU().UseAsync(d, f.chargeDoneFn)
		return
	}
	now := f.simOf().Now()
	// Pop-until-empty: processing a packet can emit replies that loop
	// back to this node and enqueue mid-drain. The remaining depth is
	// reported to the host before each packet so puzzle difficulty for
	// an I1 reflects the backlog queued behind it.
	for {
		item, ok := f.ctlQ.Pop()
		if !ok {
			break
		}
		f.host.SetBacklog(f.ctlQ.Len())
		f.host.OnPacket(item.Data, item.Src, now)
		f.debt += f.host.TakeCost()
	}
	if next := f.host.NextDeadline(); next != 0 && next <= now {
		f.host.OnTimer(now)
		f.debt += f.host.TakeCost()
	}
	f.host.Maintain(now)
	f.flushOut()
	if f.debt > 0 || f.ctlQ.Len() > 0 {
		f.kick()
	}
	f.rearmTimer()
}

// chargeDone runs when an async CPU charge completes.
func (f *Fabric) chargeDone() {
	f.charging = false
	f.kick()
}

// rearmTimer points the fabric's timer at the host's next deadline,
// bounded by a 1s housekeeping interval so rekey checks run while idle.
func (f *Fabric) rearmTimer() {
	if f.closed {
		f.timer.Stop()
		return
	}
	next := f.host.NextDeadline()
	if hk := f.simOf().Now() + time.Second; next == 0 || next > hk {
		next = hk
	}
	f.timer.Reset(next)
}

// flushOut sends outgoing control packets and dispatches host events.
func (f *Fabric) flushOut() {
	for _, op := range f.host.Outgoing() {
		f.ul.Send(netsim.ProtoHIP, op.Dst, op.Data)
	}
	if len(f.host.Events()) > 0 {
		f.assocQ.WakeAll()
	}
}

// Canonical resolves a HIT or LSI to the canonical HIT, remembering LSI
// mode for the peer (simtcp.Fabric).
func (f *Fabric) Canonical(peer netip.Addr) (netip.Addr, error) {
	hit, _, byLSI, err := f.reg.Resolve(peer)
	if err != nil {
		return netip.Addr{}, err
	}
	if byLSI {
		f.lsiPeers[hit] = true
	}
	return hit, nil
}

// Establish resolves peer and runs the base exchange if needed, blocking p.
func (f *Fabric) Establish(p *netsim.Proc, peer netip.Addr) error {
	hit, locator, _, err := f.reg.Resolve(peer)
	if err != nil {
		return err
	}
	return f.EstablishAt(p, hit, locator)
}

// EstablishAt runs the base exchange with peerHIT sending the I1 to an
// explicit locator — typically the peer's rendezvous server, which relays
// the I1 while R1 onward travel direct (RFC 5204). It bypasses registry
// resolution, so re-contact after a migration exercises the real
// rendezvous/DNS path instead of the registry's instant oracle.
func (f *Fabric) EstablishAt(p *netsim.Proc, peerHIT, locator netip.Addr) error {
	p.MayPark()
	if a, ok := f.host.Association(peerHIT); ok && a.State() == hip.Established {
		return nil
	}
	if err := f.host.ConnectVia(peerHIT, locator, p.Now()); err != nil {
		return err
	}
	if c := f.host.TakeCost(); c > 0 {
		f.node.CPU().Use(p, c)
	}
	f.flushNow()
	deadline := p.Now() + f.BEXTimeout
	for {
		a, ok := f.host.Association(peerHIT)
		switch {
		case !ok:
			return ErrBEXFailed // a failed base exchange deletes the association
		case a.State() == hip.Established:
			return nil
		case f.assocQ.WaitUntil(p, deadline):
			return ErrBEXTimeout
		}
	}
}

// flushNow flushes pending outgoing control packets immediately (e.g. the
// I1 emitted by Connect from a user process) and kicks a service pass so
// the daemon's deadline timer is re-armed for retransmissions.
func (f *Fabric) flushNow() {
	f.flushOut()
	f.kick()
}

// Send seals one stream segment for the peer. Called by the simtcp pump.
// It takes ownership of data (simtcp.Fabric): the wire unit is recycled
// once sealed, and the ESP packet travels in a pooled buffer that the
// receiving fabric recycles after decryption.
func (f *Fabric) Send(peer netip.Addr, data []byte) (time.Duration, error) {
	hit, _, byLSI, err := f.reg.Resolve(peer)
	if err != nil {
		netsim.PutBuf(data)
		return 0, err
	}
	// Trailer framing: the type byte lands in the wire buffer's spare
	// pool-class capacity, so this append does not allocate.
	payload := append(data, innerStream)
	out, dst, err := f.host.SealDataAppend(
		netsim.GetBuf(len(payload) + esp.MaxOverhead)[:0],
		hit, payload, byLSI || f.lsiPeers[hit])
	cost := f.host.TakeCost()
	netsim.PutBuf(data)
	if err != nil {
		return cost, err
	}
	f.sendESP(dst, out)
	return cost, nil
}

// Attach installs the delivery callback (simtcp.Fabric).
func (f *Fabric) Attach(deliver func(peer netip.Addr, data []byte, cost time.Duration)) {
	f.deliver = deliver
}

// Ping sends an in-tunnel echo of the given payload size to peer (HIT or
// LSI) and returns the RTT, establishing the association first if needed.
// This is the HIP analogue of the paper's ICMP RTT measurements.
func (f *Fabric) Ping(p *netsim.Proc, peer netip.Addr, size int, timeout time.Duration) (time.Duration, error) {
	if err := f.Establish(p, peer); err != nil {
		return 0, err
	}
	hit, _, byLSI, err := f.reg.Resolve(peer)
	if err != nil {
		return 0, err
	}
	f.echoSeq++
	id := f.echoSeq
	if size < 9 {
		size = 9
	}
	// Echo layout under trailer framing: id in the first 8 bytes, zero
	// padding, type byte last.
	body := make([]byte, size)
	binary.BigEndian.PutUint64(body, id)
	body[size-1] = innerEchoRq
	w := netsim.NewEchoWait(f.simOf())
	f.echoes[id] = w
	defer delete(f.echoes, id)
	out, dst, err := f.host.SealData(hit, body, byLSI)
	if err != nil {
		return 0, err
	}
	if c := f.host.TakeCost(); c > 0 {
		f.node.CPU().Use(p, c)
	}
	f.sendESP(dst, out)
	return w.Wait(p, timeout)
}

// MoveTo rehomes the fabric's host to a new locator (VM migration /
// IPv4-IPv6 handover): the HIP UPDATE announcements are sent immediately
// and the registry entry follows so new peers resolve the new address.
func (f *Fabric) MoveTo(newLocator netip.Addr) {
	f.host.MoveTo(newLocator, f.node.Net().Sim().Now())
	f.reg.Update(f.host.HIT(), newLocator)
	f.flushNow()
}

// Close stops the fabric: inbound packets are ignored, no further service
// passes are scheduled, and the daemon timer is disarmed.
func (f *Fabric) Close() {
	f.closed = true
	f.timer.Stop()
}
