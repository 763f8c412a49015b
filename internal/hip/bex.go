package hip

import (
	"crypto/hmac"
	"crypto/sha256"
	"net/netip"
	"time"

	"hipcloud/internal/esp"
	"hipcloud/internal/hipwire"
	"hipcloud/internal/identity"
	"hipcloud/internal/keymat"
	"hipcloud/internal/puzzle"
)

// Connect starts a base exchange toward peerHIT at the given locator.
// It is a no-op if an association already exists and is making progress.
func (h *Host) Connect(peerHIT, peerLocator netip.Addr, now time.Duration) error {
	if a, ok := h.assocs[peerHIT]; ok {
		switch a.state {
		case Established, I1Sent, I2Sent:
			return nil
		}
		h.forget(a)
	}
	a := &Association{
		PeerHIT:     peerHIT,
		PeerLocator: peerLocator,
		state:       I1Sent,
		initiator:   true,
	}
	h.addAssoc(a)
	h.BEXInitiated++
	i1 := &hipwire.Packet{Type: hipwire.I1, SenderHIT: h.HIT(), ReceiverHIT: peerHIT}
	pkt := i1.Marshal()
	h.emit(peerLocator, pkt)
	a.armRetrans(h, peerLocator, pkt, now)
	return nil
}

// ConnectVia starts a base exchange through a rendezvous server: the I1 is
// sent to the RVS address, which relays it to the peer's current locator.
func (h *Host) ConnectVia(peerHIT, rvsAddr netip.Addr, now time.Duration) error {
	return h.Connect(peerHIT, rvsAddr, now)
}

// OnPacket processes one inbound HIP control packet.
func (h *Host) OnPacket(data []byte, src netip.Addr, now time.Duration) {
	pkt, err := hipwire.Parse(data)
	if err != nil {
		h.PacketsDropped++
		return
	}
	// All control packets except I1 must be addressed to our HIT.
	if pkt.Type != hipwire.I1 && pkt.ReceiverHIT != h.HIT() {
		h.PacketsDropped++
		return
	}
	switch pkt.Type {
	case hipwire.I1:
		h.handleI1(pkt, src, now)
	case hipwire.R1:
		h.handleR1(pkt, src, now)
	case hipwire.I2:
		h.handleI2(pkt, src, now)
	case hipwire.R2:
		h.handleR2(pkt, src, now)
	case hipwire.UPDATE:
		h.handleUpdate(pkt, src, now)
	case hipwire.CLOSE:
		h.handleClose(pkt, src, now)
	case hipwire.CLOSEACK:
		h.handleCloseAck(pkt, src, now)
	case hipwire.NOTIFY:
		// Informational; surface BLOCKED_BY_POLICY as a failure.
		if p, ok := pkt.Get(hipwire.ParamNotification); ok {
			if n, err := hipwire.ParseNotification(p.Data); err == nil && n.Type == hipwire.NotifyBlockedByPolicy {
				if a, ok := h.assocs[pkt.SenderHIT]; ok && a.state != Established {
					a.cancelRetrans()
					h.forget(a)
					h.event(EventFailed, pkt.SenderHIT, src)
				}
			}
		}
	default:
		h.PacketsDropped++
	}
}

// --- Responder side ---

// r1TemplateFor builds (or reuses) the pre-signed R1 for difficulty k.
func (h *Host) r1TemplateFor(k uint8) *r1Template {
	if t, ok := h.r1Tmpl[k]; ok {
		return t
	}
	pz := hipwire.Puzzle{K: k, Lifetime: 37} // I, Opaque zero in template
	shell := &packetShell{params: []shellParam{
		{hipwire.ParamPuzzle, pz.Marshal()},
		{hipwire.ParamDiffieHellman, hipwire.DiffieHellman{
			Group:  hipwire.DHGroupP256,
			Public: h.dhPriv.PublicKey().Bytes(),
		}.Marshal()},
		{hipwire.ParamHIPCipher, suitesToWire(h.suites).Marshal()},
		{hipwire.ParamHostID, hipwire.HostID{
			Algorithm: uint16(h.id.Algorithm()),
			HI:        h.id.Public().DER,
			DI:        h.domainID,
		}.Marshal()},
	}}
	// Sign the template with receiver HIT, puzzle I and opaque zeroed.
	sigInput := r1SigInput(h.HIT(), shell)
	sig, err := h.id.Sign(sigInput)
	if err != nil {
		panic("hip: signing R1 template: " + err.Error())
	}
	h.cost += h.cfg.Costs.Sign
	t := &r1Template{packet: shell, sig: sig}
	h.r1Tmpl[k] = t
	return t
}

// r1SigInput builds the RFC 5201 §5.3.2 signature input: the R1 with the
// initiator (receiver) HIT zeroed and puzzle I/opaque zeroed.
func r1SigInput(senderHIT netip.Addr, shell *packetShell) []byte {
	p := &hipwire.Packet{
		Type:        hipwire.R1,
		SenderHIT:   senderHIT,
		ReceiverHIT: netip.IPv6Unspecified(),
	}
	for _, sp := range shell.params {
		data := sp.data
		if sp.typ == hipwire.ParamPuzzle {
			pz, _ := hipwire.ParsePuzzle(sp.data)
			pz.I, pz.Opaque = 0, 0
			data = pz.Marshal()
		}
		p.Add(sp.typ, data)
	}
	return p.MarshalForAuth(hipwire.ParamSignature2)
}

func (h *Host) handleI1(pkt *hipwire.Packet, src netip.Addr, now time.Duration) {
	// Opportunistic mode is not supported: the receiver HIT must be ours.
	if pkt.ReceiverHIT != h.HIT() {
		h.PacketsDropped++
		return
	}
	if h.cfg.Policy != nil && !h.cfg.Policy(pkt.SenderHIT) {
		h.notify(pkt.SenderHIT, src, hipwire.NotifyBlockedByPolicy)
		return
	}
	// Relayed I1 (via rendezvous): the true initiator address is in FROM.
	replyTo := src
	var viaRVS netip.Addr
	if from, ok := pkt.Get(hipwire.ParamFrom); ok {
		if addr, err := hipwire.ParseAddr(from.Data); err == nil {
			replyTo = addr
			viaRVS = src
		}
	}
	h.BEXResponded++
	// Load for the difficulty controller is this initiator's I1 rate plus
	// the driver-reported backlog: a HIT that keeps coming back pays, and
	// a service loop that has fallen behind hardens every puzzle.
	k := h.cfg.Puzzle.K(h.noteI1(pkt.SenderHIT, now) + h.backlog)
	h.PeakPuzzleK = max(h.PeakPuzzleK, k)
	tmpl := h.r1TemplateFor(k)
	r1 := &hipwire.Packet{
		Type:        hipwire.R1,
		SenderHIT:   h.HIT(),
		ReceiverHIT: pkt.SenderHIT,
	}
	i := h.statelessPuzzleI(pkt.SenderHIT, h.HIT(), k)
	for _, sp := range tmpl.packet.params {
		data := sp.data
		if sp.typ == hipwire.ParamPuzzle {
			pz, _ := hipwire.ParsePuzzle(sp.data)
			pz.I = i
			data = pz.Marshal()
		}
		r1.Add(sp.typ, data)
	}
	if viaRVS.IsValid() {
		r1.Add(hipwire.ParamViaRVS, hipwire.MarshalAddr(viaRVS))
	}
	r1.Add(hipwire.ParamSignature2, hipwire.Signature{
		Algorithm: uint16(h.id.Algorithm()), Sig: tmpl.sig,
	}.Marshal())
	// Template reuse: only an HMAC-sized cost per R1, no signature.
	h.cost += h.cfg.Costs.HashOp
	h.emit(replyTo, r1.Marshal())
}

func (h *Host) handleI2(pkt *hipwire.Packet, src netip.Addr, now time.Duration) {
	solP, ok := pkt.Get(hipwire.ParamSolution)
	if !ok {
		h.PacketsDropped++
		return
	}
	sol, err := hipwire.ParseSolution(solP.Data)
	if err != nil {
		h.PacketsDropped++
		return
	}
	// Duplicate I2 for an established association — same puzzle solution
	// we already accepted — means our R2 was lost: resend it. A fresh
	// solution from a HIT we believe established is NOT a duplicate: the
	// peer lost its state (crash, silent close on a dead path) and is
	// re-contacting. Falling through lets the new exchange replace the
	// stale association once its solution and signature verify; answering
	// it with the old R2 would wedge that peer forever.
	if a, ok := h.assocs[pkt.SenderHIT]; ok && a.state == Established && !a.initiator {
		if sol.I == a.puzzleI && sol.J == a.puzzleJ {
			if a.retransPkt != nil {
				h.emit(src, a.retransPkt)
			}
			return
		}
	}
	// Stateless puzzle verification: recompute I for the K the solution
	// claims, then check J.
	wantI := h.statelessPuzzleI(pkt.SenderHIT, h.HIT(), sol.K)
	h.cost += h.cfg.Costs.HashOp
	if sol.I != wantI || !puzzle.Verify(sol.I, sol.K, pkt.SenderHIT, h.HIT(), sol.J) {
		h.notify(pkt.SenderHIT, src, hipwire.NotifyInvalidPuzzleSol)
		return
	}
	dhP, ok := pkt.Get(hipwire.ParamDiffieHellman)
	if !ok {
		h.PacketsDropped++
		return
	}
	dh, err := hipwire.ParseDiffieHellman(dhP.Data)
	if err != nil || dh.Group != hipwire.DHGroupP256 {
		h.notify(pkt.SenderHIT, src, hipwire.NotifyNoDHProposalChosen)
		return
	}
	secret, err := keymat.SharedSecret(h.dhPriv, dh.Public)
	if err != nil {
		h.PacketsDropped++
		return
	}
	// The key stream takes its own copy of Kij; ours must not outlive
	// this frame on any path.
	defer keymat.Zeroize(secret)
	h.cost += h.cfg.Costs.DHCompute
	// Cipher: the initiator's choice must be one we offered.
	cipherP, ok := pkt.Get(hipwire.ParamHIPCipher)
	if !ok {
		h.PacketsDropped++
		return
	}
	chosenList, err := hipwire.ParseCipherList(cipherP.Data)
	if err != nil || len(chosenList) != 1 {
		h.PacketsDropped++
		return
	}
	// Validate the choice against this host's OWN offer (h.suites, the
	// list the R1 carried) — not the package-wide default. Checking a
	// global list instead would let an initiator steer a host configured
	// for a narrower (or AEAD-only) policy onto a suite it never
	// offered: a silent downgrade.
	suite := keymat.Suite(chosenList[0])
	if _, err := keymat.Negotiate([]keymat.Suite{suite}, h.suites); err != nil {
		h.notify(pkt.SenderHIT, src, hipwire.NotifyNoDHProposalChosen)
		return
	}
	km := keymat.New(secret, pkt.SenderHIT, h.HIT(), sol.I, sol.J)
	keys, err := keymat.DeriveAssociation(km, suite, false)
	if err != nil {
		km.Zeroize()
		h.PacketsDropped++
		return
	}
	// A rejected I2 leaves nothing keyed behind: what acceptI2 does not
	// hand to an Association is wiped here.
	if !h.acceptI2(pkt, src, now, sol, suite, keys, km) {
		keys.Zeroize()
		km.Zeroize()
	}
}

// acceptI2 authenticates an I2 under the keys derived from it and, if it
// verifies, establishes the responder's association, which then owns keys
// and km. It reports whether it did.
func (h *Host) acceptI2(pkt *hipwire.Packet, src netip.Addr, now time.Duration, sol hipwire.Solution, suite keymat.Suite, keys keymat.AssociationKeys, km *keymat.Keymat) bool {
	// The initiator's HOST_ID arrives either in the clear or inside an
	// ENCRYPTED parameter (identity privacy, RFC 5201 §5.2.17).
	var hostIDBody []byte
	if hostIDP, ok := pkt.Get(hipwire.ParamHostID); ok {
		hostIDBody = hostIDP.Data
	} else if encP, ok := pkt.Get(hipwire.ParamEncrypted); ok {
		innerType, inner, err := h.openEncryptedParam(keys.HIPEncIn, encP.Data)
		if err != nil || innerType != hipwire.ParamHostID {
			h.notify(pkt.SenderHIT, src, hipwire.NotifyAuthenticationFailed)
			return false
		}
		hostIDBody = inner
	} else {
		h.PacketsDropped++
		return false
	}
	hid, err := hipwire.ParseHostID(hostIDBody)
	if err != nil {
		h.PacketsDropped++
		return false
	}
	peerID, err := identity.ParsePublicID(identity.Algorithm(hid.Algorithm), hid.HI)
	if err != nil || peerID.HIT() != pkt.SenderHIT {
		h.notify(pkt.SenderHIT, src, hipwire.NotifyAuthenticationFailed)
		return false
	}
	if h.cfg.Policy != nil && !h.cfg.Policy(pkt.SenderHIT) {
		h.notify(pkt.SenderHIT, src, hipwire.NotifyBlockedByPolicy)
		return false
	}
	if !h.authentic(pkt, keys.HIPMacIn, peerID) {
		h.notify(pkt.SenderHIT, src, hipwire.NotifyAuthenticationFailed)
		return false
	}
	espP, ok := pkt.Get(hipwire.ParamESPInfo)
	if !ok {
		h.PacketsDropped++
		return false
	}
	ei, err := hipwire.ParseESPInfo(espP.Data)
	if err != nil || ei.NewSPI == 0 {
		h.PacketsDropped++
		return false
	}
	// Association established on the responder side. puzzleI/J fingerprint
	// the accepted solution so a retransmitted I2 (R2 loss) is told apart
	// from a fresh exchange by a peer that lost its state.
	a := &Association{
		PeerHIT:       pkt.SenderHIT,
		PeerLocator:   src,
		state:         Established,
		initiator:     false,
		localSPI:      h.newSPI(),
		remoteSPI:     ei.NewSPI,
		suite:         suite,
		keys:          keys,
		peerID:        peerID,
		km:            km,
		puzzleI:       sol.I,
		puzzleJ:       sol.J,
		establishedAt: now,
	}
	pair, err := esp.NewPair(keys, a.localSPI, a.remoteSPI)
	if err != nil {
		h.PacketsDropped++
		return false
	}
	a.espPair = pair
	if old, ok := h.assocs[a.PeerHIT]; ok {
		old.cancelRetrans()
		h.forget(old)
	}
	h.addAssoc(a)
	h.bySPI[a.localSPI] = a
	h.BEXCompleted++

	r2 := &hipwire.Packet{Type: hipwire.R2, SenderHIT: h.HIT(), ReceiverHIT: pkt.SenderHIT}
	r2.Add(hipwire.ParamESPInfo, hipwire.ESPInfo{NewSPI: a.localSPI}.Marshal())
	// Keep R2 for duplicate-I2 retransmission (no timer: initiator drives).
	a.retransPkt, a.retransDst = h.send(a, r2, src, false, now), src
	h.event(EventEstablished, a.PeerHIT, src)
	return true
}

// --- Initiator side ---

func (h *Host) handleR1(pkt *hipwire.Packet, src netip.Addr, now time.Duration) {
	a, ok := h.assocs[pkt.SenderHIT]
	if !ok || a.state != I1Sent {
		return
	}
	hostIDP, ok := pkt.Get(hipwire.ParamHostID)
	if !ok {
		return
	}
	hid, err := hipwire.ParseHostID(hostIDP.Data)
	if err != nil {
		return
	}
	peerID, err := identity.ParsePublicID(identity.Algorithm(hid.Algorithm), hid.HI)
	if err != nil || peerID.HIT() != pkt.SenderHIT {
		return // HI does not hash to the claimed HIT: fake R1
	}
	// Verify the R1 signature (with receiver HIT and puzzle I/opaque
	// zeroed, matching the responder's precomputation).
	sigP, ok := pkt.Get(hipwire.ParamSignature2)
	if !ok {
		return
	}
	sig, err := hipwire.ParseSignature(sigP.Data)
	if err != nil {
		return
	}
	shell := &packetShell{}
	for _, pr := range pkt.Params {
		if pr.Type < hipwire.ParamSignature2 && pr.Type != hipwire.ParamViaRVS {
			shell.params = append(shell.params, shellParam{pr.Type, pr.Data})
		}
	}
	h.cost += h.cfg.Costs.Verify
	if err := peerID.Verify(r1SigInput(pkt.SenderHIT, shell), sig.Sig); err != nil {
		return
	}
	pzP, ok := pkt.Get(hipwire.ParamPuzzle)
	if !ok {
		return
	}
	pz, err := hipwire.ParsePuzzle(pzP.Data)
	if err != nil {
		return
	}
	// Solve the puzzle.
	j, attempts, err := puzzle.Solve(pz.I, pz.K, h.HIT(), pkt.SenderHIT, h.rng.Uint64())
	if err != nil {
		return
	}
	h.cost += time.Duration(attempts) * h.cfg.Costs.HashOp
	// Ephemeral DH.
	dhP, ok := pkt.Get(hipwire.ParamDiffieHellman)
	if !ok {
		return
	}
	dh, err := hipwire.ParseDiffieHellman(dhP.Data)
	if err != nil || dh.Group != hipwire.DHGroupP256 {
		return
	}
	priv, err := detECDHKey(h.rng)
	if err != nil {
		return
	}
	h.cost += h.cfg.Costs.DHKeygen
	secret, err := keymat.SharedSecret(priv, dh.Public)
	if err != nil {
		return
	}
	// As on the responder side: the key stream copies Kij, so the raw
	// shared secret must not outlive this frame.
	defer keymat.Zeroize(secret)
	h.cost += h.cfg.Costs.DHCompute
	// Cipher negotiation: intersect the responder's R1 offer with this
	// host's own preference list (h.suites). Preference order on OUR
	// side decides among mutually supported suites, so a peer listing
	// legacy transforms first cannot win a downgrade when both sides
	// support AEAD.
	cipherP, ok := pkt.Get(hipwire.ParamHIPCipher)
	if !ok {
		return
	}
	offerWire, err := hipwire.ParseCipherList(cipherP.Data)
	if err != nil {
		return
	}
	suite, err := keymat.Negotiate(wireToSuites(offerWire), h.suites)
	if err != nil {
		return
	}
	km := keymat.New(secret, h.HIT(), pkt.SenderHIT, pz.I, j)
	keys, err := keymat.DeriveAssociation(km, suite, true)
	if err != nil {
		km.Zeroize()
		return
	}
	a.puzzleI, a.puzzleJ = pz.I, j
	a.suite = suite
	a.keys = keys
	a.peerID = peerID
	a.km = km
	a.localSPI = h.newSPI()
	a.PeerLocator = src
	// If the R1 came via a rendezvous relay the peer told us so; data and
	// I2 go directly to the address the R1 arrived from.
	i2 := &hipwire.Packet{Type: hipwire.I2, SenderHIT: h.HIT(), ReceiverHIT: pkt.SenderHIT}
	i2.Add(hipwire.ParamESPInfo, hipwire.ESPInfo{NewSPI: a.localSPI}.Marshal())
	i2.Add(hipwire.ParamSolution, hipwire.Solution{
		K: pz.K, Lifetime: pz.Lifetime, Opaque: pz.Opaque, I: pz.I, J: j,
	}.Marshal())
	i2.Add(hipwire.ParamDiffieHellman, hipwire.DiffieHellman{
		Group: hipwire.DHGroupP256, Public: priv.PublicKey().Bytes(),
	}.Marshal())
	i2.Add(hipwire.ParamHIPCipher, hipwire.CipherList{uint16(suite)}.Marshal())
	hostIDBody := hipwire.HostID{
		Algorithm: uint16(h.id.Algorithm()),
		HI:        h.id.Public().DER,
		DI:        h.domainID,
	}.Marshal()
	if h.cfg.EncryptHostID {
		sealed, err := h.sealEncryptedParam(keys.HIPEncOut, hipwire.ParamHostID, hostIDBody)
		if err != nil {
			return
		}
		i2.Add(hipwire.ParamEncrypted, sealed)
	} else {
		i2.Add(hipwire.ParamHostID, hostIDBody)
	}
	a.state = I2Sent
	h.send(a, i2, src, true, now)
}

func (h *Host) handleR2(pkt *hipwire.Packet, src netip.Addr, now time.Duration) {
	a, ok := h.assocs[pkt.SenderHIT]
	if !ok || a.state != I2Sent {
		return
	}
	if !h.authentic(pkt, a.keys.HIPMacIn, a.peerID) {
		return
	}
	espP, ok := pkt.Get(hipwire.ParamESPInfo)
	if !ok {
		return
	}
	ei, err := hipwire.ParseESPInfo(espP.Data)
	if err != nil || ei.NewSPI == 0 {
		return
	}
	a.remoteSPI = ei.NewSPI
	pair, err := esp.NewPair(a.keys, a.localSPI, a.remoteSPI)
	if err != nil {
		return
	}
	a.espPair = pair
	a.state = Established
	a.establishedAt = now
	a.cancelRetrans()
	h.bySPI[a.localSPI] = a
	h.BEXCompleted++
	h.event(EventEstablished, a.PeerHIT, src)
}

// --- shared helpers ---

// send signs pkt under a's control-plane keys (HMAC, then SIGNATURE,
// charging the signature) and queues it for dst. With retransmit it also
// arms pkt as a's one outstanding control packet, resent from OnTimer
// until answered. It returns the wire bytes.
func (h *Host) send(a *Association, pkt *hipwire.Packet, dst netip.Addr, retransmit bool, now time.Duration) []byte {
	mac := hmac.New(sha256.New, a.keys.HIPMacOut)
	mac.Write(pkt.MarshalForAuth(hipwire.ParamHMAC))
	pkt.Add(hipwire.ParamHMAC, mac.Sum(nil))
	sig, err := h.id.Sign(pkt.MarshalForAuth(hipwire.ParamSignature))
	if err != nil {
		panic("hip: signing control packet: " + err.Error())
	}
	h.cost += h.cfg.Costs.Sign
	pkt.Add(hipwire.ParamSignature, hipwire.Signature{
		Algorithm: uint16(h.id.Algorithm()), Sig: sig,
	}.Marshal())
	out := pkt.Marshal()
	h.emit(dst, out)
	if retransmit {
		a.armRetrans(h, dst, out, now)
	}
	return out
}

// authentic checks pkt's HMAC under macKey and then peer's signature over
// it (RFC order: the cheap check first), charging the verification once
// the HMAC holds.
func (h *Host) authentic(pkt *hipwire.Packet, macKey []byte, peer *identity.PublicID) bool {
	p, ok := pkt.Get(hipwire.ParamHMAC)
	if !ok {
		return false
	}
	mac := hmac.New(sha256.New, macKey)
	mac.Write(pkt.MarshalForAuth(hipwire.ParamHMAC))
	if !hmac.Equal(p.Data, mac.Sum(nil)) {
		return false
	}
	h.cost += h.cfg.Costs.Verify
	p, ok = pkt.Get(hipwire.ParamSignature)
	if !ok {
		return false
	}
	sig, err := hipwire.ParseSignature(p.Data)
	return err == nil && peer.Verify(pkt.MarshalForAuth(hipwire.ParamSignature), sig.Sig) == nil
}

// notify sends a NOTIFY packet to the peer.
func (h *Host) notify(peerHIT, dst netip.Addr, code uint16) {
	n := &hipwire.Packet{Type: hipwire.NOTIFY, SenderHIT: h.HIT(), ReceiverHIT: peerHIT}
	n.Add(hipwire.ParamNotification, hipwire.Notification{Type: code}.Marshal())
	h.emit(dst, n.Marshal())
}

func suitesToWire(ss []keymat.Suite) hipwire.CipherList {
	out := make(hipwire.CipherList, len(ss))
	for i, s := range ss {
		out[i] = uint16(s)
	}
	return out
}

func wireToSuites(cl hipwire.CipherList) []keymat.Suite {
	out := make([]keymat.Suite, len(cl))
	for i, v := range cl {
		out[i] = keymat.Suite(v)
	}
	return out
}
