package hip

import (
	"net/netip"
	"time"

	"hipcloud/internal/esp"
	"hipcloud/internal/hipwire"
	"hipcloud/internal/keymat"
)

// DefaultRekeyThreshold is the outbound sequence count after which the
// ESP SAs are rekeyed (well before the 32-bit sequence space nears
// exhaustion; kept modest so long-lived associations rotate keys).
const DefaultRekeyThreshold = 1 << 24

// rekeyHeadroom is the minimum gap enforced between the rekey threshold
// and outbound sequence saturation (2^32−1, where SealAppend starts
// failing with esp.ErrSeqExhausted): the rekey exchange itself takes a
// round trip plus retransmissions, during which data keeps flowing on the
// old SA. A threshold configured at or past the limit would otherwise
// only fire once sends are already failing.
//
// For the implicit-IV AEAD suites this clamp is also the nonce-reuse
// defense in depth, audited for ISSUE 10: the nonce is the sequence
// number, so a counter wrap would repeat a (key, nonce) pair —
// catastrophic for GCM. Two mechanisms make that unreachable. First,
// the clamp fires a rekey at the latest 2^16 packets before saturation,
// and installRekeyedSAs swaps in SAs keyed from a fresh KEYMAT draw
// (new key AND new salt, so the new SA's nonce stream is disjoint even
// though its counter restarts at 1). Second, even if the rekey
// exchange never completes — peer dead, UPDATEs lost past retry — the
// old SA saturates and esp.SealAppend refuses to seal rather than
// wrapping: the final sequence value is used at most once. The
// exhaustion-boundary tests in internal/esp pin the second mechanism;
// TestRekeyThresholdClampAEAD pins the first.
const rekeyHeadroom = 1 << 16

// rekeyThreshold returns the configured or default rekey point, clamped
// to leave rekeyHeadroom sequence numbers before saturation.
func (h *Host) rekeyThreshold() uint32 {
	t := h.cfg.RekeyThreshold
	if t == 0 {
		t = DefaultRekeyThreshold
	}
	if max := ^uint32(0) - rekeyHeadroom; t > max {
		t = max
	}
	return t
}

// Maintain performs periodic association upkeep: it starts an ESP rekey
// on any association whose outbound sequence numbers crossed the
// threshold. Drivers call it from their timer loops. Either end may
// notice its own outbound SA aging out (asymmetric traffic means the
// responder's counter can run far ahead of the initiator's); simultaneous
// rekeys are resolved in handleRekeyRequest, where the base-exchange
// initiator's rekey wins and the responder abandons its own.
func (h *Host) Maintain(now time.Duration) {
	for _, a := range h.sortedAssocs() {
		if a.state != Established || a.rekeying || a.espPair == nil || a.km == nil {
			continue
		}
		if a.espPair.Out.Seq() >= h.rekeyThreshold() {
			h.startRekey(a, now)
		}
	}
}

// ForceRekey immediately starts an ESP rekey with the peer. Either end
// may call it; a collision with the peer's own rekey resolves in
// handleRekeyRequest (base-exchange initiator wins).
func (h *Host) ForceRekey(peerHIT netip.Addr, now time.Duration) error {
	a, ok := h.assocs[peerHIT]
	if !ok {
		return ErrNoAssociation
	}
	if a.state != Established {
		return ErrNotEstablished
	}
	if a.rekeying || a.km == nil {
		return nil
	}
	h.startRekey(a, now)
	return nil
}

// startRekey sends UPDATE{ESP_INFO(old,new,keymat index), SEQ}.
func (h *Host) startRekey(a *Association, now time.Duration) {
	a.rekeying = true
	a.pendingRekey = h.newSPI()
	a.updateSeq++
	u := &hipwire.Packet{Type: hipwire.UPDATE, SenderHIT: h.HIT(), ReceiverHIT: a.PeerHIT}
	u.Add(hipwire.ParamESPInfo, hipwire.ESPInfo{
		KeymatIndex: uint16(a.km.Drawn()),
		OldSPI:      a.localSPI,
		NewSPI:      a.pendingRekey,
	}.Marshal())
	u.Add(hipwire.ParamSeq, hipwire.MarshalSeq(a.updateSeq))
	h.send(a, u, a.PeerLocator, true, now)
}

// handleRekeyRequest processes the peer's UPDATE{ESP_INFO, SEQ}: derive
// fresh keys, switch SAs and confirm with UPDATE{ESP_INFO, SEQ, ACK}.
// Returns true when the packet was a rekey request.
func (h *Host) handleRekeyRequest(a *Association, pkt *hipwire.Packet, src netip.Addr, now time.Duration) bool {
	espP, hasESP := pkt.Get(hipwire.ParamESPInfo)
	seqP, hasSeq := pkt.Get(hipwire.ParamSeq)
	_, hasAck := pkt.Get(hipwire.ParamAck)
	if !hasESP || !hasSeq || hasAck {
		return false
	}
	ei, err := hipwire.ParseESPInfo(espP.Data)
	if err != nil || ei.NewSPI == 0 {
		return false
	}
	// Duplicate request (our confirmation was lost): resend it.
	if ei.NewSPI == a.remoteSPI && a.retransPkt != nil {
		h.emit(src, a.retransPkt)
		return true
	}
	if ei.OldSPI != a.remoteSPI {
		return false
	}
	// Simultaneous rekey: both ends crossed the threshold and sent
	// UPDATE{ESP_INFO,SEQ} before seeing the other's. Serving both would
	// double-draw the KEYMAT stream and desynchronize keys, so exactly one
	// side must yield; the base-exchange initiator's rekey wins (a stable,
	// mutually known tie-break). As initiator we drop the peer's request —
	// it abandons its own on receiving ours; as responder we abandon ours
	// here and serve the peer's.
	if a.rekeying {
		if a.initiator {
			return true
		}
		a.rekeying = false
		a.pendingRekey = 0
		a.cancelRetrans()
	}
	peerSeq, err := hipwire.ParseSeq(seqP.Data)
	if err != nil {
		return true
	}
	if a.km == nil || uint16(a.km.Drawn()) != ei.KeymatIndex {
		// KEYMAT desync would produce garbage keys; refuse.
		h.notify(a.PeerHIT, src, hipwire.NotifyInvalidSyntax)
		return true
	}
	keys, err := keymat.DeriveESPRekey(a.km, a.suite, a.initiator)
	if err != nil {
		return true
	}
	newLocal := h.newSPI()
	if err := h.installRekeyedSAs(a, keys, newLocal, ei.NewSPI); err != nil {
		return true
	}
	a.peerUpdateSeq = peerSeq
	a.updateSeq++
	u := &hipwire.Packet{Type: hipwire.UPDATE, SenderHIT: h.HIT(), ReceiverHIT: a.PeerHIT}
	u.Add(hipwire.ParamESPInfo, hipwire.ESPInfo{
		KeymatIndex: uint16(a.km.Drawn()),
		OldSPI:      ei.OldSPI, // echo the peer's old SPI for matching
		NewSPI:      newLocal,
	}.Marshal())
	u.Add(hipwire.ParamSeq, hipwire.MarshalSeq(a.updateSeq))
	u.Add(hipwire.ParamAck, hipwire.MarshalAck([]uint32{peerSeq}))
	h.send(a, u, src, true, now)
	return true
}

// handleRekeyConfirm processes UPDATE{ESP_INFO, SEQ, ACK} at the rekey
// initiator: derive the same keys, switch SAs and send the closing ACK.
func (h *Host) handleRekeyConfirm(a *Association, pkt *hipwire.Packet, src netip.Addr, now time.Duration) bool {
	espP, hasESP := pkt.Get(hipwire.ParamESPInfo)
	seqP, hasSeq := pkt.Get(hipwire.ParamSeq)
	ackP, hasAck := pkt.Get(hipwire.ParamAck)
	if !hasESP || !hasSeq || !hasAck || !a.rekeying || !a.acked(ackP.Data) {
		return false
	}
	ei, err := hipwire.ParseESPInfo(espP.Data)
	if err != nil || ei.NewSPI == 0 {
		return true
	}
	keys, err := keymat.DeriveESPRekey(a.km, a.suite, a.initiator)
	if err != nil {
		return true
	}
	if err := h.installRekeyedSAs(a, keys, a.pendingRekey, ei.NewSPI); err != nil {
		return true
	}
	a.rekeying = false
	a.pendingRekey = 0
	a.cancelRetrans()
	// Close the exchange so the peer stops retransmitting.
	if peerSeq, err := hipwire.ParseSeq(seqP.Data); err == nil {
		u := &hipwire.Packet{Type: hipwire.UPDATE, SenderHIT: h.HIT(), ReceiverHIT: a.PeerHIT}
		u.Add(hipwire.ParamAck, hipwire.MarshalAck([]uint32{peerSeq}))
		h.send(a, u, src, false, now)
	}
	return true
}

// installRekeyedSAs swaps in fresh SAs under new SPIs, carrying the
// control-plane keys into the successor key set. The fresh ESP keys are
// wiped if no SA takes them.
func (h *Host) installRekeyedSAs(a *Association, espKeys keymat.AssociationKeys, newLocal, newRemote uint32) error {
	espKeys.HIPEncOut, espKeys.HIPEncIn = a.keys.HIPEncOut, a.keys.HIPEncIn
	espKeys.HIPMacOut, espKeys.HIPMacIn = a.keys.HIPMacOut, a.keys.HIPMacIn
	pair, err := esp.NewPair(espKeys, newLocal, newRemote)
	if err != nil {
		espKeys.ZeroizeESP()
		return err
	}
	delete(h.bySPI, a.localSPI)
	// The displaced SAs and directional ESP keys are dead once the swap
	// lands: wipe them before dropping the last references. The HIP
	// control keys were carried into espKeys above and stay live, so
	// only the ESP slots are cleared.
	a.espPair.Zeroize()
	a.keys.ZeroizeESP()
	a.localSPI, a.remoteSPI = newLocal, newRemote
	a.keys = espKeys
	a.espPair = pair
	h.bySPI[newLocal] = a
	a.Rekeys++
	h.cost += h.cfg.Costs.HashOp * 8 // KEYMAT expansion
	return nil
}
