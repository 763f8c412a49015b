package hip

import (
	"crypto/hmac"
	"net/netip"
	"time"

	"hipcloud/internal/hipwire"
)

// MoveTo rehomes the host to a new locator (VM migration / mobility) and
// notifies every established peer with a HIP UPDATE carrying a LOCATOR
// parameter. Peers verify the new address with an echo challenge before
// redirecting data to it (RFC 5206 return-routability).
func (h *Host) MoveTo(newLocator netip.Addr, now time.Duration) {
	h.locator = newLocator
	for _, a := range h.sortedAssocs() {
		if a.state != Established {
			continue
		}
		a.updateSeq++
		u := &hipwire.Packet{Type: hipwire.UPDATE, SenderHIT: h.HIT(), ReceiverHIT: a.PeerHIT}
		u.Add(hipwire.ParamLocator, hipwire.MarshalLocators([]hipwire.Locator{
			{Preferred: true, Lifetime: 120, Addr: newLocator},
		}))
		u.Add(hipwire.ParamSeq, hipwire.MarshalSeq(a.updateSeq))
		h.send(a, u, a.PeerLocator, true, now)
	}
}

func (h *Host) handleUpdate(pkt *hipwire.Packet, src netip.Addr, now time.Duration) {
	a, ok := h.assocs[pkt.SenderHIT]
	if !ok || (a.state != Established && a.state != Closing) {
		return
	}
	if !h.authentic(pkt, a.keys.HIPMacIn, a.peerID) {
		return
	}

	// Rekey exchanges carry ESP_INFO and are handled separately.
	if h.handleRekeyConfirm(a, pkt, src, now) {
		return
	}
	if h.handleRekeyRequest(a, pkt, src, now) {
		return
	}

	seqP, hasSeq := pkt.Get(hipwire.ParamSeq)
	ackP, hasAck := pkt.Get(hipwire.ParamAck)
	echoReqP, hasEchoReq := pkt.Get(hipwire.ParamEchoRequestSigned)
	echoRespP, hasEchoResp := pkt.Get(hipwire.ParamEchoResponseSigned)
	locP, hasLoc := pkt.Get(hipwire.ParamLocator)

	// A bare ACK closes an exchange (e.g. the tail of a rekey): cancel
	// the matching retransmission.
	if hasAck && !hasSeq && !hasEchoReq && !hasEchoResp && !hasLoc {
		if a.acked(ackP.Data) {
			a.cancelRetrans()
		}
		return
	}

	// Case 1: peer announces a new locator (SEQ + LOCATOR, no ACK):
	// challenge the claimed address with an echo nonce.
	if hasSeq && hasLoc && !hasAck {
		peerSeq, err := hipwire.ParseSeq(seqP.Data)
		if err != nil {
			return
		}
		locs, err := hipwire.ParseLocators(locP.Data)
		if err != nil || len(locs) == 0 {
			return
		}
		newAddr := locs[0].Addr
		for _, l := range locs {
			if l.Preferred {
				newAddr = l.Addr
			}
		}
		a.peerUpdateSeq = peerSeq
		a.candidateAddr = newAddr
		nonce := make([]byte, 16)
		h.rng.Read(nonce)
		a.echoSent = nonce
		a.updateSeq++
		u := &hipwire.Packet{Type: hipwire.UPDATE, SenderHIT: h.HIT(), ReceiverHIT: a.PeerHIT}
		u.Add(hipwire.ParamSeq, hipwire.MarshalSeq(a.updateSeq))
		u.Add(hipwire.ParamAck, hipwire.MarshalAck([]uint32{peerSeq}))
		u.Add(hipwire.ParamEchoRequestSigned, nonce)
		// Challenge goes to the *claimed* new address: reaching the peer
		// there proves return routability.
		h.send(a, u, newAddr, true, now)
		return
	}

	// Case 2: our announcement was acked and we are challenged: echo the
	// nonce back from the new address.
	if hasAck && hasEchoReq {
		if a.acked(ackP.Data) {
			a.cancelRetrans()
		}
		var peerSeq uint32
		if hasSeq {
			peerSeq, _ = hipwire.ParseSeq(seqP.Data)
		}
		u := &hipwire.Packet{Type: hipwire.UPDATE, SenderHIT: h.HIT(), ReceiverHIT: a.PeerHIT}
		if peerSeq != 0 {
			u.Add(hipwire.ParamAck, hipwire.MarshalAck([]uint32{peerSeq}))
		}
		u.Add(hipwire.ParamEchoResponseSigned, echoReqP.Data)
		h.send(a, u, src, false, now)
		return
	}

	// Case 3: echo response: the peer's new address is verified.
	if hasEchoResp {
		if hasAck && a.acked(ackP.Data) {
			a.cancelRetrans()
		}
		// hmac.Equal, not bytes.Equal: the echo response is peer-supplied,
		// and a variable-time compare would let an off-path attacker grind
		// the nonce one byte per probe and hijack the locator update.
		if a.echoSent != nil && hmac.Equal(echoRespP.Data, a.echoSent) && a.candidateAddr.IsValid() {
			a.PeerLocator = a.candidateAddr
			a.echoSent = nil
			a.candidateAddr = netip.Addr{}
			h.event(EventLocatorChanged, a.PeerHIT, a.PeerLocator)
		}
		return
	}
}

// Close starts an orderly association teardown.
func (h *Host) Close(peerHIT netip.Addr, now time.Duration) error {
	a, ok := h.assocs[peerHIT]
	if !ok {
		return ErrNoAssociation
	}
	if a.state != Established {
		return ErrNotEstablished
	}
	a.state = Closing
	c := &hipwire.Packet{Type: hipwire.CLOSE, SenderHIT: h.HIT(), ReceiverHIT: peerHIT}
	nonce := make([]byte, 16)
	h.rng.Read(nonce)
	c.Add(hipwire.ParamEchoRequestSigned, nonce)
	h.send(a, c, a.PeerLocator, true, now)
	return nil
}

func (h *Host) handleClose(pkt *hipwire.Packet, src netip.Addr, now time.Duration) {
	a, ok := h.assocs[pkt.SenderHIT]
	if !ok || !h.authentic(pkt, a.keys.HIPMacIn, a.peerID) {
		return
	}
	ack := &hipwire.Packet{Type: hipwire.CLOSEACK, SenderHIT: h.HIT(), ReceiverHIT: a.PeerHIT}
	if echo, ok := pkt.Get(hipwire.ParamEchoRequestSigned); ok {
		ack.Add(hipwire.ParamEchoResponseSigned, echo.Data)
	}
	h.send(a, ack, src, false, now)
	h.teardown(a)
}

func (h *Host) handleCloseAck(pkt *hipwire.Packet, src netip.Addr, now time.Duration) {
	a, ok := h.assocs[pkt.SenderHIT]
	if !ok || a.state != Closing || !h.authentic(pkt, a.keys.HIPMacIn, a.peerID) {
		return
	}
	a.cancelRetrans()
	h.teardown(a)
}

// teardown forgets an association whose CLOSE exchange has run.
func (h *Host) teardown(a *Association) {
	a.state = Closed
	h.forget(a)
	h.event(EventClosed, a.PeerHIT, a.PeerLocator)
}

// Shutdown closes every association at once without telling the peers,
// for a transport that is going away (hipudp.Stack.Close): each one is
// wiped, turns Closed and leaves the SPI table, so nothing seals or opens
// under it again. The associations stay listed for callers that inspect
// the host afterwards.
func (h *Host) Shutdown() {
	for _, a := range h.assocList {
		a.cancelRetrans()
		a.state = Closed
		a.retire()
	}
	clear(h.bySPI)
}
