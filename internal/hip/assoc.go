package hip

import (
	"encoding/binary"
	"net/netip"
	"time"

	"hipcloud/internal/esp"
	"hipcloud/internal/hipwire"
	"hipcloud/internal/identity"
	"hipcloud/internal/keymat"
)

// Association is the per-peer HIP security association.
type Association struct {
	PeerHIT     netip.Addr
	PeerLocator netip.Addr
	state       State
	initiator   bool

	localSPI, remoteSPI uint32
	suite               keymat.Suite
	keys                keymat.AssociationKeys
	espPair             *esp.Pair
	peerID              *identity.PublicID
	// km is the association's KEYMAT stream; rekeys draw fresh ESP keys
	// from it at an agreed index (RFC 5202 §3.3.2).
	km *keymat.Keymat
	// rekeying guards against concurrent rekey attempts; pendingRekey
	// holds the proposed new inbound SPI until the peer confirms.
	rekeying     bool
	pendingRekey uint32
	Rekeys       uint64

	// Handshake scratch (initiator side).
	puzzleI, puzzleJ uint64
	establishedAt    time.Duration

	// UPDATE machinery.
	updateSeq     uint32 // our last sent update id
	peerUpdateSeq uint32 // last peer update id we acked
	// candidateAddr is a peer locator pending return-routability proof.
	candidateAddr netip.Addr
	echoSent      []byte // nonce we challenged the peer's new address with

	// Retransmission state (one outstanding control packet per assoc).
	retransPkt   []byte
	retransDst   netip.Addr
	retransAt    time.Duration
	retransTries int
	// retransDeadline is the absolute give-up time (16×RetransmitBase
	// past arming): jitter may stretch individual intervals but never the
	// total, keeping failure strictly inside the drivers' dial timeout.
	retransDeadline time.Duration

	// Stats.
	DataSent, DataRcvd uint64
}

// retire wipes the association's key material — the ESP SAs, the full
// key set and the KEYMAT stream — before the association is dropped or
// replaced. Without the wipe the retired keys linger on the heap for as
// long as the allocator pleases; any path that removes an Association
// from the host's maps must call retire first.
func (a *Association) retire() {
	a.espPair.Zeroize()
	a.keys.Zeroize()
	if a.km != nil {
		a.km.Zeroize()
	}
}

// State returns the association state.
func (a *Association) State() State { return a.state }

// Initiator reports which side of the BEX this host was.
func (a *Association) Initiator() bool { return a.initiator }

// Suite returns the negotiated ESP transform.
func (a *Association) Suite() keymat.Suite { return a.suite }

// SPIs returns (local inbound, remote inbound) SPIs.
func (a *Association) SPIs() (local, remote uint32) { return a.localSPI, a.remoteSPI }

// armRetrans stores pkt for retransmission until cancelRetrans.
func (a *Association) armRetrans(h *Host, dst netip.Addr, pkt []byte, now time.Duration) {
	a.retransPkt = pkt
	a.retransDst = dst
	a.retransTries = 0
	// Jitter the very first retry too: in a synchronized herd it is the
	// largest collision of all (every peer armed in the same instant).
	a.retransAt = now + h.jittered(h.cfg.RetransmitBase)
	a.retransDeadline = now + 16*h.cfg.RetransmitBase
}

// acked reports whether the ACK parameter body ackParam acknowledges a's
// last sent update; a malformed body acknowledges nothing.
func (a *Association) acked(ackParam []byte) bool {
	acks, err := hipwire.ParseAck(ackParam)
	if err != nil {
		return false
	}
	for _, id := range acks {
		if id == a.updateSeq {
			return true
		}
	}
	return false
}

func (a *Association) cancelRetrans() {
	a.retransPkt = nil
	a.retransAt = 0
	a.retransTries = 0
	a.retransDeadline = 0
}

// SealData encrypts an application payload for the peer, returning the ESP
// packet and the locator to send it to. The caller picks the transport.
// byLSI notes that the application addressed the peer via an LSI, charging
// the extra translation cost the paper measures.
func (h *Host) SealData(peerHIT netip.Addr, payload []byte, byLSI bool) (pkt []byte, dst netip.Addr, err error) {
	return h.SealDataAppend(nil, peerHIT, payload, byLSI)
}

// SealDataAppend is SealData writing the ESP packet into dst's spare
// capacity (esp.SealAppend semantics): with a caller-recycled dst it
// performs no allocation on the data path.
func (h *Host) SealDataAppend(dst []byte, peerHIT netip.Addr, payload []byte, byLSI bool) (pkt []byte, dstLoc netip.Addr, err error) {
	return h.SealDataHdrAppend(dst, peerHIT, nil, payload, byLSI)
}

// SealDataHdrAppend is SealDataAppend of the payload hdr||payload, sealed
// from its two pieces (esp.SealHdrAppend): a driver passes its inner
// header and a lent payload view without joining them first.
func (h *Host) SealDataHdrAppend(dst []byte, peerHIT netip.Addr, hdr, payload []byte, byLSI bool) (pkt []byte, dstLoc netip.Addr, err error) {
	a, ok := h.assocs[peerHIT]
	if !ok {
		return nil, netip.Addr{}, ErrNoAssociation
	}
	if a.state != Established && a.state != Closing {
		return nil, netip.Addr{}, ErrNotEstablished
	}
	pkt, err = a.espPair.Out.SealHdrAppend(dst, hdr, payload)
	if err != nil {
		return nil, netip.Addr{}, err
	}
	n := len(hdr) + len(payload)
	h.cost += h.cfg.Costs.Symmetric(n) + h.cfg.Costs.ShimPerPacket
	if byLSI {
		h.cost += h.cfg.Costs.LSITranslation
	}
	a.DataSent += uint64(n)
	return pkt, a.PeerLocator, nil
}

// OpenData authenticates and decrypts an inbound ESP packet, demuxing by
// SPI. It returns the payload and the peer HIT it arrived from.
func (h *Host) OpenData(pkt []byte, byLSI bool) (payload []byte, peerHIT netip.Addr, err error) {
	return h.OpenDataAppend(nil, pkt, byLSI)
}

// OpenDataAppend is OpenData appending the decrypted payload to dst
// (esp.OpenAppend semantics); it returns dst with the payload appended.
func (h *Host) OpenDataAppend(dst, pkt []byte, byLSI bool) (payload []byte, peerHIT netip.Addr, err error) {
	if len(pkt) < esp.HeaderLen {
		return nil, netip.Addr{}, esp.ErrShort
	}
	spi := binary.BigEndian.Uint32(pkt)
	a, ok := h.bySPI[spi]
	if !ok {
		h.PacketsDropped++
		return nil, netip.Addr{}, esp.ErrUnknownSPI
	}
	payload, err = a.espPair.In.OpenAppend(dst, pkt)
	if err != nil {
		h.PacketsDropped++
		return nil, netip.Addr{}, err
	}
	n := len(payload) - len(dst)
	h.cost += h.cfg.Costs.Symmetric(n) + h.cfg.Costs.ShimPerPacket
	if byLSI {
		h.cost += h.cfg.Costs.LSITranslation
	}
	a.DataRcvd += uint64(n)
	return payload, a.PeerHIT, nil
}

// ESP exposes the association's current SA pair, for tests and drivers
// that inspect or fast-forward sequence state (e.g. the near-saturation
// rekey edge tests). Nil until the base exchange installs SAs.
func (a *Association) ESP() *esp.Pair { return a.espPair }
