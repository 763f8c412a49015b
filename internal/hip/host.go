// Package hip implements the Host Identity Protocol control plane
// (RFC 5201 base exchange, RFC 5202 ESP signaling, RFC 5206 mobility
// updates, CLOSE teardown) as a sans-io state machine.
//
// A Host consumes inbound control packets, timer expirations and local
// API calls (Connect, Close, MoveTo); it produces outbound packets
// (drained with Outgoing), events (drained with Events) and an accumulated
// virtual CPU cost (drained with TakeCost) that simulation drivers charge
// to the owning VM's processor. Real-transport drivers simply discard the
// cost — the crypto work was actually performed.
package hip

import (
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	randv2 "math/rand/v2"
	"net/netip"
	"time"

	"hipcloud/internal/identity"
	"hipcloud/internal/keymat"
	"hipcloud/internal/puzzle"
)

// Errors returned by the control plane.
var (
	ErrNoAssociation  = errors.New("hip: no association with peer")
	ErrNotEstablished = errors.New("hip: association not established")
)

// State is the HIP association state (RFC 5201 §4.4).
type State int

// Association states.
const (
	Unassociated State = iota
	I1Sent
	I2Sent
	R2Sent
	Established
	Closing
	Closed
	Failed
)

func (s State) String() string {
	switch s {
	case Unassociated:
		return "UNASSOCIATED"
	case I1Sent:
		return "I1-SENT"
	case I2Sent:
		return "I2-SENT"
	case R2Sent:
		return "R2-SENT"
	case Established:
		return "ESTABLISHED"
	case Closing:
		return "CLOSING"
	case Closed:
		return "CLOSED"
	case Failed:
		return "FAILED"
	}
	return "state(?)"
}

// CostModel maps cryptographic operations to virtual CPU time on a
// reference core. Values are calibrated in internal/cloud for 2012-era
// EC2 hardware; zero values mean "free" (used by real-transport drivers,
// where the host CPU genuinely pays).
type CostModel struct {
	Sign      time.Duration // asymmetric signature generation
	Verify    time.Duration // asymmetric signature verification
	DHCompute time.Duration // Diffie-Hellman shared-secret computation
	DHKeygen  time.Duration // Diffie-Hellman keypair generation
	HashOp    time.Duration // one hash evaluation (puzzle attempts)
	// Per-byte symmetric costs (encryption + MAC), in ns/byte.
	SymmetricNsPerByte float64
	// Per-packet fixed cost of the shim layer (HIT<->locator mapping).
	ShimPerPacket time.Duration
	// Extra per-packet cost when the application addressed the peer by
	// LSI rather than HIT (the IPv4<->IPv6 translation the paper blames
	// for the LSI penalty in Figure 3).
	LSITranslation time.Duration
}

// Symmetric returns the virtual cost of symmetric crypto over n bytes.
func (m CostModel) Symmetric(n int) time.Duration {
	return time.Duration(m.SymmetricNsPerByte * float64(n))
}

// EventKind classifies events surfaced to drivers.
type EventKind int

// Event kinds.
const (
	EventEstablished EventKind = iota
	EventClosed
	EventFailed
	EventLocatorChanged // peer moved; data should flow to the new address
)

func (k EventKind) String() string {
	switch k {
	case EventEstablished:
		return "established"
	case EventClosed:
		return "closed"
	case EventFailed:
		return "failed"
	case EventLocatorChanged:
		return "locator-changed"
	}
	return "event(?)"
}

// Event is one state-change notification.
type Event struct {
	Kind    EventKind
	PeerHIT netip.Addr
	Locator netip.Addr
}

// OutPacket is one control packet to transmit.
type OutPacket struct {
	Dst  netip.Addr
	Data []byte
}

// Config configures a Host.
type Config struct {
	Identity *identity.HostIdentity
	// DomainID is the optional FQDN placed in HOST_ID parameters.
	DomainID string
	// Locator is the host's current IP address.
	Locator netip.Addr
	// Costs is the virtual CPU cost model (zero = free).
	Costs CostModel
	// Puzzle controls responder difficulty: its water marks are one
	// initiator's I1s per second plus the control backlog the driver
	// reports (SetBacklog). The zero value uses puzzle.DefaultDifficulty.
	Puzzle puzzle.Difficulty
	// Rand seeds the host's randomness: DH keys, the puzzle secret, puzzle
	// start values, SPIs, nonces and retransmit jitter. NewHost reads 32
	// bytes from it into a ChaCha8 that makes every draw. Nil seeds the
	// ChaCha8 from the hash of the identity's signature over a fixed
	// string, so each identity has its own stream and an identity from
	// identity.GenerateDeterministic the same one on every run: that is
	// for simulation only. hipudp's NewStack passes crypto/rand.Reader
	// when the caller leaves it nil.
	Rand io.Reader
	// Policy, when non-nil, decides whether to accept an association
	// from the given peer HIT (the hosts.allow/hosts.deny hook the
	// paper describes; see internal/hipfw).
	Policy func(peerHIT netip.Addr) bool
	// RetransmitBase is the initial control-packet retransmission
	// timeout (default 500ms, doubling up to 4 retries).
	RetransmitBase time.Duration
	// RekeyThreshold rekeys the ESP SAs after this many outbound
	// packets (0 = DefaultRekeyThreshold). See Maintain.
	RekeyThreshold uint32
	// EncryptHostID hides the initiator's HOST_ID inside an ENCRYPTED
	// parameter in I2 (identity privacy, RFC 5201 §5.2.17): a passive
	// observer of the handshake learns only the HIT.
	EncryptHostID bool
	// Suites is the preference-ordered HIP_CIPHER proposal list: what a
	// responder offers in R1 and what either side is willing to accept
	// (the chosen suite in I2 is validated against it, so a peer can
	// never push this host onto a suite it did not offer). Nil keeps the
	// 2012 default (keymat.Preferred — CTR/CBC/NULL, the set the
	// simulation goldens pin); modern drivers pass keymat.PreferredAEAD.
	Suites []keymat.Suite
}

// Host is a HIP endpoint: identity, associations and the handshake
// machinery.
type Host struct {
	cfg      Config
	id       *identity.HostIdentity
	locator  netip.Addr
	domainID []byte // cfg.DomainID converted once; HOST_ID params alias it

	dhPriv *ecdh.PrivateKey // long-lived responder DH key (R1 pool key)
	r1Tmpl map[uint8]*r1Template
	// suites is the resolved Config.Suites (never nil after NewHost).
	suites []keymat.Suite

	assocs map[netip.Addr]*Association // by peer HIT
	// assocList mirrors assocs in peer-HIT order, maintained by
	// addAssoc/delAssoc: the per-tick walks (OnTimer, NextDeadline) and
	// every deterministic snapshot iterate it instead of ranging the map.
	assocList []*Association
	bySPI     map[uint32]*Association // by local inbound SPI

	out    []OutPacket
	events []Event
	cost   time.Duration

	rng      *rand.Rand
	r1Secret []byte // stateless puzzle-I derivation secret
	// initiators holds each recent initiator's I1 count, decayed with a
	// 1 s time constant: the per-initiator half of the puzzle difficulty
	// input (see noteI1). A fixed array, so an I1 allocates nothing and a
	// flood of fresh HITs cannot grow it.
	initiators [initiatorSlots]initiatorLoad

	// backlog is the driver-reported count of control packets queued
	// behind the one being handled, added to the sending initiator's
	// decayed I1 count as the puzzle difficulty input: when the service
	// loop falls behind, every initiator's puzzle hardens, fresh HITs
	// included, even if no one initiator sends often.
	backlog int

	// Stats visible to experiments.
	BEXInitiated, BEXResponded, BEXCompleted uint64
	PacketsDropped                           uint64
	// Retransmits counts control-packet retransmissions — the herd
	// amplification signal the storm experiment reports.
	Retransmits uint64
	// PeakPuzzleK is the highest puzzle difficulty any R1 of this host
	// has carried.
	PeakPuzzleK uint8
}

// initiatorSlots is the size of Host.initiators. A loop of a few bots
// fits many times over; a churn of fresh HITs evicts its own kind first.
const initiatorSlots = 64

// initiatorLoad is one initiator's I1 count, decayed to its last I1.
type initiatorLoad struct {
	hit  netip.Addr
	load float64
	last time.Duration
}

// at is e's load decayed to now (1 s time constant).
func (e *initiatorLoad) at(now time.Duration) float64 {
	if dt := now - e.last; dt > 0 {
		return e.load * math.Exp(-float64(dt)/float64(time.Second))
	}
	return e.load
}

// r1Template is a pre-signed R1 for a given difficulty K (puzzle I and
// opaque are zeroed in the signature input, per RFC 5201 §5.3.2, so the
// template can be reused with fresh I values at zero signing cost).
type r1Template struct {
	packet *packetShell
	sig    []byte
}

// packetShell keeps the R1 parameter set so per-request copies are cheap.
type packetShell struct {
	params []shellParam
}

type shellParam struct {
	typ  uint16
	data []byte
}

// NewHost creates a HIP host.
func NewHost(cfg Config) (*Host, error) {
	if cfg.Identity == nil {
		return nil, errors.New("hip: Config.Identity is required")
	}
	if cfg.Puzzle == (puzzle.Difficulty{}) {
		cfg.Puzzle = puzzle.DefaultDifficulty
	}
	if cfg.RetransmitBase <= 0 {
		cfg.RetransmitBase = 500 * time.Millisecond
	}
	suites := cfg.Suites
	if len(suites) == 0 {
		suites = keymat.Preferred
	}
	for _, s := range suites {
		if _, err := s.EncKeyLen(); err != nil {
			return nil, fmt.Errorf("hip: Config.Suites: %w", err)
		}
	}
	h := &Host{
		cfg:      cfg,
		id:       cfg.Identity,
		locator:  cfg.Locator,
		domainID: []byte(cfg.DomainID),
		assocs:   make(map[netip.Addr]*Association),
		bySPI:    make(map[uint32]*Association),
		r1Tmpl:   make(map[uint8]*r1Template),
		suites:   suites,
	}
	var seed [32]byte
	if cfg.Rand != nil {
		if _, err := io.ReadFull(cfg.Rand, seed[:]); err != nil {
			return nil, fmt.Errorf("hip: seeding rng: %w", err)
		}
	} else {
		// A function of the private key (RFC 6979's principle), so as
		// secret as the identity; a HIT-derived seed would expose the DH
		// key. No virtual cost: a real host seeds from crypto/rand.
		sig, err := cfg.Identity.Sign([]byte("hip: host rng seed"))
		if err != nil {
			return nil, fmt.Errorf("hip: seeding rng: %w", err)
		}
		seed = sha256.Sum256(sig)
		clear(sig)
	}
	h.rng = rand.New(chachaSource{randv2.NewChaCha8(seed)})
	clear(seed[:])
	h.r1Secret = make([]byte, 32)
	h.rng.Read(h.r1Secret)
	// Long-lived DH keypair (the "R1 pool" key). Charged as one keygen.
	priv, err := detECDHKey(h.rng)
	if err != nil {
		return nil, fmt.Errorf("hip: DH keygen: %w", err)
	}
	h.dhPriv = priv
	h.cost += h.cfg.Costs.DHKeygen
	return h, nil
}

// chachaSource lets a ChaCha8 back h.rng, a math/rand Rand, so every draw
// of a host comes from the CSPRNG. (math/rand's own source keeps only
// seed mod 2^31-1 of any seed it is given.)
type chachaSource struct{ *randv2.ChaCha8 }

func (s chachaSource) Int63() int64 { return int64(s.Uint64() >> 1) }

func (chachaSource) Seed(int64) { panic("hip: a host rng cannot be reseeded") }

// detECDHKey derives an ECDH P-256 key from the host RNG by drawing the
// scalar explicitly. It must NOT go through ecdh.GenerateKey with an
// io.Reader adapter: since Go 1.20 the stdlib deliberately consumes a
// runtime-random number of bytes from non-default readers
// (randutil.MaybeReadByte), which would advance h.rng by a
// nondeterministic offset and change every later draw — puzzle seeds,
// SPIs, nonces — breaking bit-exact simulation replay.
func detECDHKey(rng *rand.Rand) (*ecdh.PrivateKey, error) {
	var b [32]byte
	for {
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		k, err := ecdh.P256().NewPrivateKey(b[:])
		if err == nil {
			return k, nil
		}
		// Out-of-range scalar (probability ~2^-32): redraw.
	}
}

// HIT returns the host's HIT.
func (h *Host) HIT() netip.Addr { return h.id.HIT() }

// Identity returns the host identity.
func (h *Host) Identity() *identity.HostIdentity { return h.id }

// Locator returns the host's current locator.
func (h *Host) Locator() netip.Addr { return h.locator }

// LSIPenalty returns the configured per-packet LSI translation cost, so
// drivers can charge it for inbound packets on LSI-mode flows.
func (h *Host) LSIPenalty() time.Duration { return h.cfg.Costs.LSITranslation }

// Outgoing drains queued control packets.
func (h *Host) Outgoing() []OutPacket {
	out := h.out
	h.out = nil
	return out
}

// Events drains queued events.
func (h *Host) Events() []Event {
	ev := h.events
	h.events = nil
	return ev
}

// TakeCost drains the accumulated virtual CPU cost.
func (h *Host) TakeCost() time.Duration {
	c := h.cost
	h.cost = 0
	return c
}

// Association returns the association with peerHIT, if any.
func (h *Host) Association(peerHIT netip.Addr) (*Association, bool) {
	a, ok := h.assocs[peerHIT]
	return a, ok
}

// Associations returns all current associations, ordered by peer HIT.
func (h *Host) Associations() []*Association { return h.sortedAssocs() }

// sortedAssocs snapshots the associations in peer-HIT order. Every path
// that walks associations AND emits packets or events must iterate this
// snapshot, never the map: map-range order would make packet emission
// order depend on Go's map seed, breaking run-to-run determinism of the
// simulation (the experiments package's same-seed referee checks it).
// assocList is already sorted, so the snapshot is a single exact-size
// copy — no map range, no sort, no comparator closure on the timer path.
// The copy (rather than returning assocList itself) matters: OnTimer
// tears down failed associations mid-walk, which mutates assocList under
// the iteration.
func (h *Host) sortedAssocs() []*Association {
	out := make([]*Association, len(h.assocList))
	copy(out, h.assocList)
	return out
}

// addAssoc installs a in both views: the lookup map and the sorted list.
// An existing association for the same peer is replaced in place.
func (h *Host) addAssoc(a *Association) {
	if _, ok := h.assocs[a.PeerHIT]; ok {
		h.assocs[a.PeerHIT] = a
		for i, old := range h.assocList {
			if old.PeerHIT == a.PeerHIT {
				h.assocList[i] = a
				break
			}
		}
		return
	}
	h.assocs[a.PeerHIT] = a
	i := len(h.assocList)
	for i > 0 && h.assocList[i-1].PeerHIT.Compare(a.PeerHIT) > 0 {
		i--
	}
	h.assocList = append(h.assocList, nil)
	copy(h.assocList[i+1:], h.assocList[i:])
	h.assocList[i] = a
}

// delAssoc removes the association for peerHIT from both views.
func (h *Host) delAssoc(peerHIT netip.Addr) {
	delete(h.assocs, peerHIT)
	for i, a := range h.assocList {
		if a.PeerHIT == peerHIT {
			h.assocList = append(h.assocList[:i], h.assocList[i+1:]...)
			return
		}
	}
}

func (h *Host) emit(dst netip.Addr, data []byte) {
	h.out = append(h.out, OutPacket{Dst: dst, Data: data})
}

func (h *Host) event(k EventKind, peer netip.Addr, loc netip.Addr) {
	h.events = append(h.events, Event{Kind: k, PeerHIT: peer, Locator: loc})
}

// forget drops a for good: it wipes a's keys, unlists it and takes its
// inbound SPI out of the SPI table when that entry routes to a (never
// another association's route).
func (h *Host) forget(a *Association) {
	a.retire()
	h.delAssoc(a.PeerHIT)
	if h.bySPI[a.localSPI] == a {
		delete(h.bySPI, a.localSPI)
	}
}

// newSPI allocates a fresh local SPI, one no listed association holds as
// its inbound SPI or as a proposed rekey SPI. An initiator's SPI enters the
// SPI table only at R2 and a rekey's only at its confirm, so the table
// alone does not say which SPIs are taken; every table entry routes to a
// listed association's localSPI, so the scan covers it.
func (h *Host) newSPI() uint32 {
next:
	for {
		spi := h.rng.Uint32()
		if spi == 0 {
			continue
		}
		for _, a := range h.assocList {
			if a.localSPI == spi || a.pendingRekey == spi {
				continue next
			}
		}
		return spi
	}
}

// noteI1 counts one I1 from hit and returns hit's decayed I1 count, the
// per-initiator load the difficulty controller sees (RFC 5201 §4.1.2 lets a
// responder choose K per initiator). A HIT not in the table takes the slot
// of the entry with the lowest decayed load, so a churn of one-shot HITs
// evicts one another before it evicts an initiator that keeps coming back.
// The limit: fresh HITs are cheap, so an attacker that rotates them meets
// only the backlog half of the input.
func (h *Host) noteI1(hit netip.Addr, now time.Duration) int {
	var e *initiatorLoad
	low := math.Inf(1)
	for i := range h.initiators {
		c := &h.initiators[i]
		if c.hit == hit {
			e = c
			break
		}
		if l := c.at(now); l < low {
			e, low = c, l
		}
	}
	if e.hit != hit {
		*e = initiatorLoad{hit: hit, last: now}
	}
	e.load = e.at(now) + 1
	e.last = now
	return int(e.load)
}

// jittered spreads a retransmission interval d uniformly over
// [d/2, 3d/2). Synchronized peers (a mass migration, a re-contact herd)
// otherwise retry in lockstep and re-amplify the very burst that made
// them retry; each host's own stream de-correlates them.
func (h *Host) jittered(d time.Duration) time.Duration {
	return d/2 + time.Duration(float64(d)*h.rng.Float64())
}

// SetBacklog reports how many control packets the driver holds queued
// behind the one it hands the host next (see Host.backlog).
func (h *Host) SetBacklog(n int) { h.backlog = n }

// statelessPuzzleI derives the puzzle I for an initiator and difficulty k
// without storing state: HMAC(secret, HIT-I | HIT-R | k) truncated to 64
// bits. k is mixed in only when it differs from the base difficulty, so
// an idle responder's I is unchanged, while an I2 that claims a smaller K
// than its R1 carried no longer matches the I it echoes. While hitI has
// an ESTABLISHED association, that association's local SPI is mixed in
// too: a restarted peer solves an I issued while the association was live
// and still gets in, but an I2 captured before it existed no longer
// verifies, so a replay cannot replace it.
func (h *Host) statelessPuzzleI(hitI, hitR netip.Addr, k uint8) uint64 {
	m := hmac.New(sha256.New, h.r1Secret)
	a, r := hitI.As16(), hitR.As16()
	var b [21]byte // HIT-R, then k when it is mixed in, then the live SPI
	copy(b[:], r[:])
	in := b[:16]
	if k != h.cfg.Puzzle.BaseK {
		b[16] = k
		in = b[:17]
	}
	if as, ok := h.assocs[hitI]; ok && as.state == Established {
		in = binary.BigEndian.AppendUint32(in, as.localSPI)
	}
	m.Write(a[:])
	m.Write(in)
	return binary.BigEndian.Uint64(m.Sum(nil))
}

// NextDeadline returns the earliest retransmission deadline across all
// associations (zero when none is armed).
func (h *Host) NextDeadline() time.Duration {
	var min time.Duration
	for _, a := range h.assocList {
		if a.retransAt != 0 && (min == 0 || a.retransAt < min) {
			min = a.retransAt
		}
	}
	return min
}

// OnTimer retransmits any control packets whose deadline has passed.
func (h *Host) OnTimer(now time.Duration) {
	for _, a := range h.sortedAssocs() {
		if a.retransAt == 0 || now < a.retransAt {
			continue
		}
		if a.retransTries >= 4 || (a.retransDeadline != 0 && now >= a.retransDeadline) {
			a.retransAt = 0
			a.state = Failed
			h.event(EventFailed, a.PeerHIT, a.PeerLocator)
			h.forget(a)
			continue
		}
		a.retransTries++
		// First retry waits the base interval again, doubling from there:
		// deadlines at base×{1,2,4,8,16} cumulative, so the give-up above
		// lands at 16×base (8s at the 500ms default) — strictly inside the
		// drivers' 10s establish timeout, so a Dial blocked on a doomed
		// base exchange gets EventFailed rather than hanging to its own
		// deadline. (The previous shift doubled the first retry too and
		// gave up only at 31×base = 15.5s, past the timeout.)
		backoff := h.cfg.RetransmitBase << uint(a.retransTries-1)
		if c := 8 * h.cfg.RetransmitBase; backoff > c {
			backoff = c
		}
		at := now + h.jittered(backoff)
		// Jitter stretches individual intervals but must not stretch the
		// give-up past the cumulative 16×base budget above: clamp to the
		// absolute deadline recorded at arm time so the BEXTimeout
		// invariant survives any jitter draw.
		if a.retransDeadline != 0 && at > a.retransDeadline {
			at = a.retransDeadline
		}
		a.retransAt = at
		h.Retransmits++
		h.emit(a.retransDst, a.retransPkt)
	}
}
