package hip

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"hipcloud/internal/esp"
	"hipcloud/internal/hipwire"
	"hipcloud/internal/identity"
	"hipcloud/internal/keymat"
	"hipcloud/internal/puzzle"
)

// Shared identities (keygen, esp. RSA, is slow).
var (
	idA   = identity.MustGenerate(identity.AlgECDSA)
	idB   = identity.MustGenerate(identity.AlgECDSA)
	idC   = identity.MustGenerate(identity.AlgECDSA)
	idRSA = identity.MustGenerate(identity.AlgRSA)
)

var (
	locA  = netip.MustParseAddr("10.0.0.1")
	locB  = netip.MustParseAddr("10.0.0.2")
	locC  = netip.MustParseAddr("10.0.0.3")
	locB2 = netip.MustParseAddr("10.0.9.2") // B after migration
)

// wire is a tiny test harness delivering control packets between hosts by
// locator, with optional loss and a virtual clock for timers.
type wire struct {
	t     *testing.T
	hosts map[netip.Addr]*Host
	now   time.Duration
	loss  func(from, to netip.Addr, data []byte) bool
	rng   *rand.Rand
}

func newWire(t *testing.T) *wire {
	return &wire{t: t, hosts: make(map[netip.Addr]*Host), rng: rand.New(rand.NewSource(11))}
}

func (w *wire) add(h *Host, locs ...netip.Addr) {
	for _, l := range locs {
		w.hosts[l] = h
	}
}

// pump delivers queued packets until quiescent.
func (w *wire) pump() {
	for {
		progress := false
		for loc, h := range w.hosts {
			for _, op := range h.Outgoing() {
				progress = true
				if w.loss != nil && w.loss(loc, op.Dst, op.Data) {
					continue
				}
				dst, ok := w.hosts[op.Dst]
				if !ok {
					continue
				}
				dst.OnPacket(op.Data, hostLocator(w, h), w.now)
			}
		}
		if !progress {
			return
		}
	}
}

// hostLocator finds the (first) locator a host is registered under; for
// multi-homed test hosts the current Host.Locator() is preferred.
func hostLocator(w *wire, h *Host) netip.Addr {
	if hh, ok := w.hosts[h.Locator()]; ok && hh == h {
		return h.Locator()
	}
	for loc, hh := range w.hosts {
		if hh == h {
			return loc
		}
	}
	return netip.Addr{}
}

// advance moves the virtual clock and fires timers.
func (w *wire) advance(d time.Duration) {
	w.now += d
	for _, h := range w.hosts {
		h.OnTimer(w.now)
	}
	w.pump()
}

func newHost(t *testing.T, id *identity.HostIdentity, loc netip.Addr) *Host {
	t.Helper()
	h, err := NewHost(Config{Identity: id, Locator: loc})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func establish(t *testing.T, w *wire, a, b *Host) {
	t.Helper()
	if err := a.Connect(b.HIT(), b.Locator(), w.now); err != nil {
		t.Fatal(err)
	}
	w.pump()
	assocA, ok := a.Association(b.HIT())
	if !ok || assocA.State() != Established {
		t.Fatalf("initiator state: %v", stateOf(a, b))
	}
	assocB, ok := b.Association(a.HIT())
	if !ok || assocB.State() != Established {
		t.Fatalf("responder state: %v", stateOf(b, a))
	}
}

// keysBalanced shuts the hosts down, which wipes whatever their
// associations still hold, and then expects keymat's key ledger back at
// start: a key left over is one some path dropped without a wipe.
func keysBalanced(t *testing.T, start int, hosts ...*Host) {
	t.Helper()
	for _, h := range hosts {
		h.Shutdown()
	}
	if left := keymat.KeysOutstanding(); len(left) != start {
		t.Errorf("%d keys dropped unwiped, created at %q", len(left)-start, left[min(start, len(left)):])
	}
}

func stateOf(h *Host, peer *Host) State {
	if a, ok := h.Association(peer.HIT()); ok {
		return a.State()
	}
	return Unassociated
}

func TestBaseExchange(t *testing.T) {
	w := newWire(t)
	a := newHost(t, idA, locA)
	b := newHost(t, idB, locB)
	w.add(a, locA)
	w.add(b, locB)
	establish(t, w, a, b)

	// Both sides emitted an Established event.
	evA, evB := a.Events(), b.Events()
	if len(evA) != 1 || evA[0].Kind != EventEstablished || evA[0].PeerHIT != b.HIT() {
		t.Fatalf("initiator events: %+v", evA)
	}
	if len(evB) != 1 || evB[0].Kind != EventEstablished {
		t.Fatalf("responder events: %+v", evB)
	}
	// SPIs must cross-match.
	aa, _ := a.Association(b.HIT())
	bb, _ := b.Association(a.HIT())
	al, ar := aa.SPIs()
	bl, br := bb.SPIs()
	if al != br || ar != bl {
		t.Fatalf("SPI mismatch: a=(%d,%d) b=(%d,%d)", al, ar, bl, br)
	}
	if aa.Suite() != bb.Suite() {
		t.Fatalf("suite mismatch: %v vs %v", aa.Suite(), bb.Suite())
	}
	if !aa.Initiator() || bb.Initiator() {
		t.Fatal("initiator flags wrong")
	}
}

func TestDataPathAfterBEX(t *testing.T) {
	w := newWire(t)
	a := newHost(t, idA, locA)
	b := newHost(t, idB, locB)
	w.add(a, locA)
	w.add(b, locB)
	establish(t, w, a, b)

	msg := []byte("GET /items/42 HTTP/1.1")
	pkt, dst, err := a.SealData(b.HIT(), msg, false)
	if err != nil {
		t.Fatal(err)
	}
	if dst != locB {
		t.Fatalf("data dst = %v", dst)
	}
	got, peer, err := b.OpenData(pkt, false)
	if err != nil {
		t.Fatal(err)
	}
	if peer != a.HIT() || !bytes.Equal(got, msg) {
		t.Fatalf("payload = %q from %v", got, peer)
	}
	// Reverse direction.
	pkt2, _, err := b.SealData(a.HIT(), []byte("200 OK"), false)
	if err != nil {
		t.Fatal(err)
	}
	got2, _, err := a.OpenData(pkt2, false)
	if err != nil || string(got2) != "200 OK" {
		t.Fatalf("reverse: %q %v", got2, err)
	}
}

func TestSealWithoutAssociation(t *testing.T) {
	a := newHost(t, idA, locA)
	if _, _, err := a.SealData(idB.HIT(), []byte("x"), false); err != ErrNoAssociation {
		t.Fatalf("err = %v, want ErrNoAssociation", err)
	}
}

func TestOpenUnknownSPI(t *testing.T) {
	a := newHost(t, idA, locA)
	pkt := make([]byte, esp.HeaderLen+esp.ICVLen)
	pkt[3] = 99
	if _, _, err := a.OpenData(pkt, false); err != esp.ErrUnknownSPI {
		t.Fatalf("err = %v, want ErrUnknownSPI", err)
	}
}

func TestBEXRetransmissionRecoversLoss(t *testing.T) {
	w := newWire(t)
	a := newHost(t, idA, locA)
	b := newHost(t, idB, locB)
	w.add(a, locA)
	w.add(b, locB)
	// Drop the first two packets of the exchange entirely.
	dropped := 0
	w.loss = func(from, to netip.Addr, data []byte) bool {
		if dropped < 2 {
			dropped++
			return true
		}
		return false
	}
	if err := a.Connect(b.HIT(), locB, w.now); err != nil {
		t.Fatal(err)
	}
	w.pump()
	if stateOf(a, b) == Established {
		t.Fatal("established despite loss without timer")
	}
	// Fire retransmission timers a few times.
	for i := 0; i < 6 && stateOf(a, b) != Established; i++ {
		w.advance(2 * time.Second)
	}
	if stateOf(a, b) != Established || stateOf(b, a) != Established {
		t.Fatalf("not established after retransmits: a=%v b=%v", stateOf(a, b), stateOf(b, a))
	}
}

// TestRandSeedsEveryDraw: a host seeded from Config.Rand draws from all 32
// bytes it reads. math/rand's own source keeps only seed mod 2^31-1, so two
// seeds congruent modulo that gave two hosts one DH key and one puzzle
// secret. A nil Rand once put every host on one seed.
func TestRandSeedsEveryDraw(t *testing.T) {
	seeded := func(v uint64) io.Reader {
		b := bytes.Repeat([]byte{0x5a}, 32)
		binary.BigEndian.PutUint64(b, v)
		return bytes.NewReader(b)
	}
	const v = 0x123456789abcdef0
	a, err := NewHost(Config{Identity: idA, Locator: locA, Rand: seeded(v)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewHost(Config{Identity: idB, Locator: locB, Rand: seeded(v + math.MaxInt32)})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.dhPriv.PublicKey().Bytes(), b.dhPriv.PublicKey().Bytes()) {
		t.Fatal("hosts seeded with different bytes hold the same DH key")
	}
	if bytes.Equal(a.r1Secret, b.r1Secret) {
		t.Fatal("hosts seeded with different bytes hold the same puzzle secret")
	}

	// A nil Rand seeds from the host's own identity: two identities draw
	// two streams, and one identity built twice draws the same one.
	unseeded := func(seed string) *Host {
		h, err := NewHost(Config{Identity: identity.MustGenerateDeterministic(identity.AlgECDSA, seed), Locator: locA})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	c, d, c2 := unseeded("rand/c"), unseeded("rand/d"), unseeded("rand/c")
	if bytes.Equal(c.dhPriv.PublicKey().Bytes(), d.dhPriv.PublicKey().Bytes()) {
		t.Fatal("unseeded hosts with different identities hold the same DH key")
	}
	if bytes.Equal(c.r1Secret, d.r1Secret) {
		t.Fatal("unseeded hosts with different identities hold the same puzzle secret")
	}
	if !bytes.Equal(c.dhPriv.PublicKey().Bytes(), c2.dhPriv.PublicKey().Bytes()) || !bytes.Equal(c.r1Secret, c2.r1Secret) {
		t.Fatal("one identity built twice drew two streams")
	}
}

// TestReEstablishAfterSilentPeerLoss: an initiator that lost its state
// without a CLOSE reaching the responder (crash, or teardown on a dead
// path after the peer migrated) must be able to run a fresh base
// exchange. The responder still holds an Established association for that
// HIT; it must recognize the fresh puzzle solution as a new exchange and
// replace the stale state instead of replaying the old R2 forever.
func TestReEstablishAfterSilentPeerLoss(t *testing.T) {
	start := len(keymat.KeysOutstanding())
	w := newWire(t)
	a := newHost(t, idA, locA)
	b := newHost(t, idB, locB)
	w.add(a, locA)
	w.add(b, locB)
	establish(t, w, a, b)
	bb, _ := b.Association(a.HIT())
	oldLocal, oldRemote := bb.SPIs()

	// The initiator's state vanishes silently: a fresh host, same identity.
	// A restarted daemon has fresh entropy (a nil-Rand restart of a
	// deterministic identity draws the original stream again, so it would
	// replay the original exchange byte for byte, which IS a duplicate).
	a2h, err := NewHost(Config{
		Identity: idA, Locator: locA,
		Rand: bytes.NewReader([]byte("restart-entropy-1/32-byte-seed..")),
	})
	if err != nil {
		t.Fatal(err)
	}
	a2 := a2h
	w.add(a2, locA)
	if err := a2.Connect(b.HIT(), locB, w.now); err != nil {
		t.Fatal(err)
	}
	w.pump()
	if stateOf(a2, b) != Established {
		t.Fatalf("re-contact wedged: initiator state %v", stateOf(a2, b))
	}
	nb, ok := b.Association(a.HIT())
	if !ok || nb.State() != Established {
		t.Fatalf("responder state after re-contact: %v", stateOf(b, a2))
	}
	newLocal, newRemote := nb.SPIs()
	if newLocal == oldLocal && newRemote == oldRemote {
		t.Fatal("responder kept the stale association's SPIs — old R2 replayed")
	}
	// The replaced association's SPIs must cross-match the new initiator's.
	na, _ := a2.Association(b.HIT())
	al, ar := na.SPIs()
	if al != newRemote || ar != newLocal {
		t.Fatalf("SPI mismatch after re-establish: a=(%d,%d) b=(%d,%d)", al, ar, newLocal, newRemote)
	}
	keysBalanced(t, start, a, a2, b) // the stale association was wiped when replaced
}

// An I2 captured from an earlier exchange, replayed from a third locator
// while a later association with the same peer is live, must not replace
// that association: the responder's stateless puzzle I is bound to the
// live association, so the stale solution no longer verifies.
func TestStaleI2CannotReplaceLiveAssociation(t *testing.T) {
	start := len(keymat.KeysOutstanding())
	w := newWire(t)
	a := newHost(t, idA, locA)
	b := newHost(t, idB, locB)
	w.add(a, locA)
	w.add(b, locB)
	var captured []byte
	w.loss = func(_, _ netip.Addr, data []byte) bool {
		if p, err := hipwire.Parse(data); err == nil && p.Type == hipwire.I2 && captured == nil {
			captured = append([]byte(nil), data...)
		}
		return false
	}
	establish(t, w, a, b)
	w.loss = nil
	if captured == nil {
		t.Fatal("no I2 captured")
	}
	if err := a.Close(b.HIT(), w.now); err != nil {
		t.Fatal(err)
	}
	w.pump()
	if len(a.Associations()) != 0 || len(b.Associations()) != 0 {
		t.Fatal("association survived its CLOSE")
	}
	w.advance(time.Hour)
	establish(t, w, a, b)
	live, _ := b.Association(a.HIT())

	b.OnPacket(captured, locC, w.now)
	out := b.Outgoing()
	if len(out) != 1 || out[0].Dst != locC {
		t.Fatalf("responder sent %d packets to the replayer, want one NOTIFY", len(out))
	}
	n, _ := hipwire.Parse(out[0].Data)
	np, _ := n.Get(hipwire.ParamNotification)
	if note, _ := hipwire.ParseNotification(np.Data); n.Type != hipwire.NOTIFY || note.Type != hipwire.NotifyInvalidPuzzleSol {
		t.Fatalf("responder answered %v/%d, want NOTIFY INVALID_PUZZLE_SOLUTION", n.Type, note.Type)
	}
	if now, ok := b.Association(a.HIT()); !ok || now != live || now.PeerLocator != locA {
		t.Fatal("stale I2 replaced the live association")
	}
	// The live peer's traffic still opens at the responder.
	pkt, _, err := a.SealData(b.HIT(), []byte("still here"), false)
	if err != nil {
		t.Fatal(err)
	}
	if payload, peer, err := b.OpenData(pkt, false); err != nil || peer != a.HIT() || string(payload) != "still here" {
		t.Fatalf("live peer's ESP after the replay: %q from %v, %v", payload, peer, err)
	}
	keysBalanced(t, start, a, b)
}

func TestBEXFailsAfterMaxRetries(t *testing.T) {
	w := newWire(t)
	a := newHost(t, idA, locA)
	w.add(a, locA) // peer does not exist: all I1s vanish
	if err := a.Connect(idB.HIT(), locB, w.now); err != nil {
		t.Fatal(err)
	}
	w.pump()
	for i := 0; i < 10; i++ {
		w.advance(20 * time.Second)
	}
	if _, ok := a.Association(idB.HIT()); ok {
		t.Fatal("association still present after max retries")
	}
	evs := a.Events()
	var failed bool
	for _, e := range evs {
		if e.Kind == EventFailed {
			failed = true
		}
	}
	if !failed {
		t.Fatalf("no failure event: %+v", evs)
	}
}

// TestGiveUpWipesKeys is the regression test for OnTimer's give-up branch
// dropping an association without retire(): an initiator that times out
// in I2Sent already holds the derived key set, and none of it may outlive
// the association.
func TestGiveUpWipesKeys(t *testing.T) {
	start := len(keymat.KeysOutstanding())
	w := newWire(t)
	a := newHost(t, idA, locA)
	b := newHost(t, idB, locB)
	w.add(a, locA)
	w.add(b, locB)
	// The peer answers the I1 and then goes silent: every R2 is lost.
	w.loss = func(from, to netip.Addr, data []byte) bool {
		return from == locB && stateOf(a, b) == I2Sent
	}
	if err := a.Connect(b.HIT(), locB, w.now); err != nil {
		t.Fatal(err)
	}
	w.pump()
	if stateOf(a, b) != I2Sent {
		t.Fatalf("initiator state %v, want I2Sent", stateOf(a, b))
	}
	if len(keymat.KeysOutstanding()) == start {
		t.Fatal("no key material derived by I2Sent: the test proves nothing")
	}
	for i := 0; i < 10; i++ {
		w.advance(20 * time.Second)
	}
	if _, ok := a.Association(b.HIT()); ok {
		t.Fatal("association still present after max retries")
	}
	keysBalanced(t, start, b) // a holds nothing now: only b is shut down
}

// TestNewSPISkipsUnconfirmedSPIs: an initiator's SPI enters the SPI table
// only at R2 and a proposed rekey SPI only at its confirm, so an allocator
// that consults the table alone hands them out a second time. Two hosts
// with the same default seed draw the same SPI sequence, which lets the
// test list host 2's next draws on host 1 before host 1 draws.
func TestNewSPISkipsUnconfirmedSPIs(t *testing.T) {
	h1 := newHost(t, idA, locA)
	h2 := newHost(t, idB, locB)
	x, y := h2.newSPI(), h2.newSPI()
	h1.addAssoc(&Association{PeerHIT: idB.HIT(), state: I2Sent, initiator: true, localSPI: x})
	h1.addAssoc(&Association{PeerHIT: idC.HIT(), state: Established, rekeying: true, pendingRekey: y})
	if got := h1.newSPI(); got == x || got == y {
		t.Fatalf("newSPI = %#x, already held by a listed association (unconfirmed %#x, pending rekey %#x)", got, x, y)
	}
}

// TestFailedBEXKeepsOtherRoute: a failing association must take only its
// own SPI-table route with it, never another association's under the same
// SPI.
func TestFailedBEXKeepsOtherRoute(t *testing.T) {
	w := newWire(t)
	a := newHost(t, idA, locA)
	b := newHost(t, idB, locB)
	w.add(a, locA)
	w.add(b, locB)
	establish(t, w, a, b)
	ab, _ := a.Association(b.HIT())
	spi, _ := ab.SPIs()
	doomed := &Association{PeerHIT: idC.HIT(), PeerLocator: locC, state: I2Sent, initiator: true, localSPI: spi}
	a.addAssoc(doomed)
	doomed.armRetrans(a, locC, []byte("I2 to nobody"), w.now)
	for i := 0; i < 10; i++ {
		w.advance(20 * time.Second)
	}
	if _, ok := a.Association(idC.HIT()); ok {
		t.Fatal("doomed association still present after max retries")
	}
	if got := a.bySPI[spi]; got != ab {
		t.Fatalf("SPI %#x routes to %p after the other association failed, want the live one %p", spi, got, ab)
	}
	pkt, _, err := b.SealData(a.HIT(), []byte("still here"), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.OpenData(pkt, false); err != nil {
		t.Fatalf("live association's inbound data: %v", err)
	}
}

func TestResponderStatelessOnI1Flood(t *testing.T) {
	w := newWire(t)
	b := newHost(t, idB, locB)
	w.add(b, locB)
	// Spray 500 I1s with random sender HITs; responder must create zero
	// associations (stateless R1s only).
	for i := 0; i < 500; i++ {
		var hit [16]byte
		hit[0], hit[1], hit[2], hit[3] = 0x20, 0x01, 0x00, 0x10
		hit[15] = byte(i)
		hit[14] = byte(i >> 8)
		i1 := &hipwire.Packet{Type: hipwire.I1, SenderHIT: netip.AddrFrom16(hit), ReceiverHIT: b.HIT()}
		b.OnPacket(i1.Marshal(), locA, w.now)
	}
	if n := len(b.Associations()); n != 0 {
		t.Fatalf("responder holds %d associations after I1 flood", n)
	}
	if len(b.Outgoing()) != 500 {
		t.Fatal("responder did not answer the I1s")
	}
}

func TestPolicyRejectsPeer(t *testing.T) {
	start := len(keymat.KeysOutstanding())
	w := newWire(t)
	a := newHost(t, idA, locA)
	bCfg := Config{Identity: idB, Locator: locB, Policy: func(peer netip.Addr) bool {
		return peer != idA.HIT() // deny A
	}}
	b, err := NewHost(bCfg)
	if err != nil {
		t.Fatal(err)
	}
	w.add(a, locA)
	w.add(b, locB)
	a.Connect(b.HIT(), locB, w.now)
	w.pump()
	if stateOf(a, b) == Established || stateOf(b, a) == Established {
		t.Fatal("association established despite deny policy")
	}
	var failed bool
	for _, e := range a.Events() {
		if e.Kind == EventFailed {
			failed = true
		}
	}
	if !failed {
		t.Fatal("initiator did not observe policy failure")
	}

	// A policy that changes between the I1 and the I2 (an ACL update
	// mid-handshake) refuses the I2 after its keys are derived.
	calls := 0
	c, err := NewHost(Config{Identity: idC, Locator: locC, Policy: func(netip.Addr) bool {
		calls++
		return calls == 1 // admit the I1 only
	}})
	if err != nil {
		t.Fatal(err)
	}
	w.add(c, locC)
	a.Connect(c.HIT(), locC, w.now)
	w.pump()
	if calls < 2 || stateOf(c, a) != Unassociated {
		t.Fatalf("policy consulted %d times, responder state %v: the I2 was not refused by policy", calls, stateOf(c, a))
	}
	keysBalanced(t, start, a, b, c)
}

func TestWrongPuzzleSolutionRejected(t *testing.T) {
	w := newWire(t)
	a := newHost(t, idA, locA)
	b := newHost(t, idB, locB)
	w.add(a, locA)
	w.add(b, locB)
	a.Connect(b.HIT(), locB, w.now)
	// Intercept: deliver I1, take R1, forge an I2 with a bogus solution.
	for _, op := range a.Outgoing() {
		b.OnPacket(op.Data, locA, w.now)
	}
	r1ops := b.Outgoing()
	if len(r1ops) != 1 {
		t.Fatal("no R1")
	}
	a.OnPacket(r1ops[0].Data, locB, w.now)
	i2ops := a.Outgoing()
	if len(i2ops) != 1 {
		t.Fatal("no I2")
	}
	pkt, err := hipwire.Parse(i2ops[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pkt.Params {
		if pkt.Params[i].Type == hipwire.ParamSolution {
			sol, _ := hipwire.ParseSolution(pkt.Params[i].Data)
			sol.J ^= 0xffff // break the solution
			pkt.Params[i].Data = sol.Marshal()
		}
	}
	b.OnPacket(pkt.Marshal(), locA, w.now)
	if len(b.Associations()) != 0 {
		t.Fatal("responder accepted bogus puzzle solution")
	}
}

// TestI2CannotLowerPuzzleK is the puzzle-K attack: a responder under load
// sends an R1 whose K is above its base difficulty, and the initiator
// answers with a well-formed I2 that carries that R1's I, K = 0 and so
// any J. The responder must refuse the solution and hold no association.
func TestI2CannotLowerPuzzleK(t *testing.T) {
	start := len(keymat.KeysOutstanding())
	a := newHost(t, idA, locA)
	// Any load at all is at HighWater: every R1 carries MaxK.
	b, err := NewHost(Config{Identity: idB, Locator: locB,
		Puzzle: puzzle.Difficulty{BaseK: 1, MaxK: 10, LowWater: 0, HighWater: 1}})
	if err != nil {
		t.Fatal(err)
	}
	a.Connect(b.HIT(), locB, 0)
	for _, op := range a.Outgoing() {
		b.OnPacket(op.Data, locA, 0)
	}
	r1 := b.Outgoing()
	if len(r1) != 1 {
		t.Fatal("no R1")
	}
	// The attacker's own I2 builder answers an R1 that says K = 0: the
	// loaded R1 with its puzzle's K zeroed, signed as the responder's
	// K = 0 template (the signature leaves the puzzle's I out).
	pkt, _ := hipwire.Parse(r1[0].Data)
	for i := range pkt.Params {
		switch pkt.Params[i].Type {
		case hipwire.ParamPuzzle:
			pz, _ := hipwire.ParsePuzzle(pkt.Params[i].Data)
			if pz.K <= 1 {
				t.Fatalf("R1 carried K=%d, want one above the base difficulty", pz.K)
			}
			pz.K = 0
			pkt.Params[i].Data = pz.Marshal()
		case hipwire.ParamSignature2:
			pkt.Params[i].Data = hipwire.Signature{
				Algorithm: uint16(idB.Algorithm()), Sig: b.r1TemplateFor(0).sig,
			}.Marshal()
		}
	}
	a.OnPacket(pkt.Marshal(), locB, 0)
	i2 := a.Outgoing()
	if len(i2) != 1 {
		t.Fatal("no I2")
	}
	b.OnPacket(i2[0].Data, locA, 0)
	if len(b.Associations()) != 0 {
		t.Fatal("responder accepted an I2 that lowered the puzzle's K to 0")
	}
	out := b.Outgoing()
	if len(out) != 1 {
		t.Fatalf("responder sent %d packets, want one NOTIFY", len(out))
	}
	n, _ := hipwire.Parse(out[0].Data)
	np, _ := n.Get(hipwire.ParamNotification)
	if note, _ := hipwire.ParseNotification(np.Data); n.Type != hipwire.NOTIFY || note.Type != hipwire.NotifyInvalidPuzzleSol {
		t.Fatalf("responder answered %v/%d, want NOTIFY INVALID_PUZZLE_SOLUTION", n.Type, note.Type)
	}
	keysBalanced(t, start, a, b)
}

func TestForgedHostIDRejected(t *testing.T) {
	// A mallory host C replays A's handshake role but with its own key
	// while claiming A's HIT: HIT(HI) check must reject.
	start := len(keymat.KeysOutstanding())
	w := newWire(t)
	b := newHost(t, idB, locB)
	c := newHost(t, idC, locC)
	w.add(b, locB)
	w.add(c, locC)
	c.Connect(b.HIT(), locB, w.now)
	for _, op := range c.Outgoing() {
		// Rewrite I1 sender HIT to A's.
		pkt, _ := hipwire.Parse(op.Data)
		pkt.SenderHIT = idA.HIT()
		b.OnPacket(pkt.Marshal(), locC, w.now)
	}
	r1 := b.Outgoing()
	if len(r1) != 1 {
		t.Fatal("no R1 for forged I1")
	}
	// The R1 is addressed to A's HIT, so C's state machine drops it, which
	// is itself the first defense.
	c.OnPacket(r1[0].Data, locB, w.now)
	if len(c.Outgoing()) != 0 {
		t.Fatal("C answered an R1 addressed to A")
	}
	// A C that takes the R1 anyway (its signature leaves the receiver HIT
	// out) answers with its own HOST_ID under A's HIT, and re-solves the
	// puzzle for A's HIT so that the solution passes.
	pkt, _ := hipwire.Parse(r1[0].Data)
	pkt.ReceiverHIT = c.HIT()
	c.OnPacket(pkt.Marshal(), locB, w.now)
	i2 := c.Outgoing()
	if len(i2) != 1 {
		t.Fatal("no I2 from C")
	}
	pkt, _ = hipwire.Parse(i2[0].Data)
	pkt.SenderHIT = idA.HIT()
	for i := range pkt.Params {
		if pkt.Params[i].Type == hipwire.ParamSolution {
			sol, _ := hipwire.ParseSolution(pkt.Params[i].Data)
			sol.J, _, _ = puzzle.Solve(sol.I, sol.K, idA.HIT(), b.HIT(), 1)
			pkt.Params[i].Data = sol.Marshal()
		}
	}
	b.OnPacket(pkt.Marshal(), locC, w.now)
	for _, assoc := range b.Associations() {
		if assoc.PeerHIT == idA.HIT() {
			t.Fatal("forged identity accepted")
		}
	}
	keysBalanced(t, start, b, c)
}

func TestTamperedI2HMACRejected(t *testing.T) {
	start := len(keymat.KeysOutstanding())
	w := newWire(t)
	a := newHost(t, idA, locA)
	b := newHost(t, idB, locB)
	w.add(a, locA)
	w.add(b, locB)
	a.Connect(b.HIT(), locB, w.now)
	for _, op := range a.Outgoing() {
		b.OnPacket(op.Data, locA, w.now)
	}
	r1 := b.Outgoing()
	a.OnPacket(r1[0].Data, locB, w.now)
	i2 := a.Outgoing()
	pkt, _ := hipwire.Parse(i2[0].Data)
	// Tamper with the ESP_INFO (covered by HMAC) but keep everything else.
	for i := range pkt.Params {
		if pkt.Params[i].Type == hipwire.ParamESPInfo {
			ei, _ := hipwire.ParseESPInfo(pkt.Params[i].Data)
			ei.NewSPI ^= 1
			pkt.Params[i].Data = ei.Marshal()
		}
	}
	b.OnPacket(pkt.Marshal(), locA, w.now)
	if len(b.Associations()) != 0 {
		t.Fatal("tampered I2 accepted")
	}
	keysBalanced(t, start, a, b)
}

func TestMobilityUpdate(t *testing.T) {
	w := newWire(t)
	a := newHost(t, idA, locA)
	b := newHost(t, idB, locB)
	w.add(a, locA)
	w.add(b, locB, locB2) // B reachable at both addresses
	establish(t, w, a, b)
	a.Events()
	b.Events()

	// B migrates to locB2 and announces.
	b.MoveTo(locB2, w.now)
	w.pump()

	// A must have verified the new address and switched.
	aa, _ := a.Association(b.HIT())
	if aa.PeerLocator != locB2 {
		t.Fatalf("peer locator = %v, want %v", aa.PeerLocator, locB2)
	}
	var moved bool
	for _, e := range a.Events() {
		if e.Kind == EventLocatorChanged && e.Locator == locB2 {
			moved = true
		}
	}
	if !moved {
		t.Fatal("no locator-changed event")
	}
	// Data now flows to the new locator and still decrypts.
	pkt, dst, err := a.SealData(b.HIT(), []byte("after move"), false)
	if err != nil {
		t.Fatal(err)
	}
	if dst != locB2 {
		t.Fatalf("data dst = %v, want %v", dst, locB2)
	}
	got, _, err := b.OpenData(pkt, false)
	if err != nil || string(got) != "after move" {
		t.Fatalf("post-move data: %q %v", got, err)
	}
}

func TestUpdateFromUnknownPeerIgnored(t *testing.T) {
	w := newWire(t)
	b := newHost(t, idB, locB)
	w.add(b, locB)
	u := &hipwire.Packet{Type: hipwire.UPDATE, SenderHIT: idA.HIT(), ReceiverHIT: b.HIT()}
	u.Add(hipwire.ParamSeq, hipwire.MarshalSeq(1))
	b.OnPacket(u.Marshal(), locA, w.now)
	if len(b.Outgoing()) != 0 {
		t.Fatal("responded to UPDATE from unknown peer")
	}
}

func TestCloseHandshake(t *testing.T) {
	w := newWire(t)
	a := newHost(t, idA, locA)
	b := newHost(t, idB, locB)
	w.add(a, locA)
	w.add(b, locB)
	establish(t, w, a, b)
	a.Events()
	b.Events()

	if err := a.Close(b.HIT(), w.now); err != nil {
		t.Fatal(err)
	}
	w.pump()
	if _, ok := a.Association(b.HIT()); ok {
		t.Fatal("initiator association survives close")
	}
	if _, ok := b.Association(a.HIT()); ok {
		t.Fatal("responder association survives close")
	}
	for _, h := range []*Host{a, b} {
		var closed bool
		for _, e := range h.Events() {
			if e.Kind == EventClosed {
				closed = true
			}
		}
		if !closed {
			t.Fatal("missing closed event")
		}
	}
	// Data after close fails.
	if _, _, err := a.SealData(b.HIT(), []byte("x"), false); err != ErrNoAssociation {
		t.Fatalf("post-close seal err = %v", err)
	}
}

func TestCloseWithoutAssociation(t *testing.T) {
	a := newHost(t, idA, locA)
	if err := a.Close(idB.HIT(), 0); err != ErrNoAssociation {
		t.Fatalf("err = %v", err)
	}
}

func TestRSAIdentityInterop(t *testing.T) {
	w := newWire(t)
	a := newHost(t, idRSA, locA)
	b := newHost(t, idB, locB)
	w.add(a, locA)
	w.add(b, locB)
	establish(t, w, a, b)
}

func TestDuplicateI2GetsR2Again(t *testing.T) {
	w := newWire(t)
	a := newHost(t, idA, locA)
	b := newHost(t, idB, locB)
	w.add(a, locA)
	w.add(b, locB)
	// Run handshake manually to capture the I2.
	a.Connect(b.HIT(), locB, w.now)
	for _, op := range a.Outgoing() {
		b.OnPacket(op.Data, locA, w.now)
	}
	r1 := b.Outgoing()
	a.OnPacket(r1[0].Data, locB, w.now)
	i2 := a.Outgoing()
	b.OnPacket(i2[0].Data, locA, w.now)
	r2first := b.Outgoing()
	if len(r2first) != 1 {
		t.Fatal("no R2")
	}
	// Replay the I2 (e.g. the R2 was lost and the initiator retransmitted).
	b.OnPacket(i2[0].Data, locA, w.now)
	r2again := b.Outgoing()
	if len(r2again) != 1 {
		t.Fatal("duplicate I2 not answered")
	}
	if !bytes.Equal(r2first[0].Data, r2again[0].Data) {
		t.Fatal("R2 retransmission differs")
	}
	if len(b.Associations()) != 1 {
		t.Fatal("duplicate I2 created extra association")
	}
}

func TestCostAccountingNonzero(t *testing.T) {
	cm := CostModel{
		Sign: time.Millisecond, Verify: 500 * time.Microsecond,
		DHCompute: 2 * time.Millisecond, DHKeygen: time.Millisecond,
		HashOp: time.Microsecond, SymmetricNsPerByte: 10,
	}
	w := newWire(t)
	a, err := NewHost(Config{Identity: idA, Locator: locA, Costs: cm})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewHost(Config{Identity: idB, Locator: locB, Costs: cm})
	if err != nil {
		t.Fatal(err)
	}
	w.add(a, locA)
	w.add(b, locB)
	establish(t, w, a, b)
	ca, cb := a.TakeCost(), b.TakeCost()
	// Initiator pays at least: verify R1 + puzzle + keygen + dh + sign I2.
	minInit := cm.Verify + cm.DHKeygen + cm.DHCompute + cm.Sign
	if ca < minInit {
		t.Fatalf("initiator cost %v < %v", ca, minInit)
	}
	// Responder pays at least: dh + verify I2 + sign R2 (+ template sign).
	if cb < cm.DHCompute+cm.Verify+cm.Sign {
		t.Fatalf("responder cost %v too low", cb)
	}
	// Draining resets.
	if a.TakeCost() != 0 {
		t.Fatal("TakeCost did not drain")
	}
	// Data-plane cost scales with bytes.
	a.SealData(b.HIT(), make([]byte, 10000), false)
	c1 := a.TakeCost()
	a.SealData(b.HIT(), make([]byte, 20000), false)
	c2 := a.TakeCost()
	if c2 <= c1 {
		t.Fatalf("symmetric cost not byte-proportional: %v vs %v", c1, c2)
	}
	// LSI mode costs strictly more.
	a.SealData(b.HIT(), make([]byte, 10000), false)
	plain := a.TakeCost()
	cmLSI := cm
	cmLSI.LSITranslation = 50 * time.Microsecond
	a.cfg.Costs = cmLSI
	a.SealData(b.HIT(), make([]byte, 10000), true)
	lsi := a.TakeCost()
	if lsi <= plain {
		t.Fatalf("LSI cost %v not above HIT cost %v", lsi, plain)
	}
}

func TestPuzzleDifficultyRaisesUnderLoad(t *testing.T) {
	b := newHost(t, idB, locB)
	b.cfg.Puzzle = puzzle.Difficulty{BaseK: 1, MaxK: 12, LowWater: 2, HighWater: 50}
	getK := func(now time.Duration) uint8 {
		i1 := &hipwire.Packet{Type: hipwire.I1, SenderHIT: idA.HIT(), ReceiverHIT: b.HIT()}
		b.OnPacket(i1.Marshal(), locA, now)
		out := b.Outgoing()
		if len(out) != 1 {
			t.Fatal("no R1")
		}
		pkt, _ := hipwire.Parse(out[0].Data)
		pz, _ := pkt.Get(hipwire.ParamPuzzle)
		p, _ := hipwire.ParsePuzzle(pz.Data)
		return p.K
	}
	idleK := getK(0)
	// An I1 flood within one second drives the decayed load up...
	var loadedK uint8
	for i := 0; i < 100; i++ {
		loadedK = getK(time.Duration(i) * time.Millisecond)
	}
	if loadedK <= idleK {
		t.Fatalf("difficulty did not rise under flood: idle=%d loaded=%d", idleK, loadedK)
	}
	// ...and decays once the flood stops.
	cooledK := getK(30 * time.Second)
	if cooledK >= loadedK {
		t.Fatalf("difficulty did not decay: loaded=%d cooled=%d", loadedK, cooledK)
	}
}

func TestGarbageControlPacketsDropped(t *testing.T) {
	b := newHost(t, idB, locB)
	before := b.PacketsDropped
	b.OnPacket([]byte("not hip at all"), locA, 0)
	b.OnPacket(make([]byte, 40), locA, 0) // zeroed header, bad checksum
	if b.PacketsDropped != before+2 {
		t.Fatalf("dropped = %d, want %d", b.PacketsDropped, before+2)
	}
	if len(b.Outgoing()) != 0 {
		t.Fatal("responded to garbage")
	}
}

func TestEncryptedHostIDBEX(t *testing.T) {
	w := newWire(t)
	a, err := NewHost(Config{Identity: idA, Locator: locA, EncryptHostID: true})
	if err != nil {
		t.Fatal(err)
	}
	b := newHost(t, idB, locB)
	w.add(a, locA)
	w.add(b, locB)

	// Intercept the I2 on the wire: it must carry no plaintext HOST_ID
	// (identity privacy) yet the handshake must still complete.
	var sawPlainHostID, sawEncrypted bool
	w.loss = func(from, to netip.Addr, data []byte) bool {
		if pkt, err := hipwire.Parse(data); err == nil && pkt.Type == hipwire.I2 {
			if _, ok := pkt.Get(hipwire.ParamHostID); ok {
				sawPlainHostID = true
			}
			if _, ok := pkt.Get(hipwire.ParamEncrypted); ok {
				sawEncrypted = true
			}
			// The initiator's DER-encoded public key must not appear
			// anywhere in the packet bytes.
			if bytes.Contains(data, idA.Public().DER) {
				sawPlainHostID = true
			}
		}
		return false
	}
	establish(t, w, a, b)
	if sawPlainHostID {
		t.Fatal("I2 leaked the initiator's host identity in the clear")
	}
	if !sawEncrypted {
		t.Fatal("I2 carried no ENCRYPTED parameter")
	}
	// The responder still learned and verified the identity.
	bb, _ := b.Association(a.HIT())
	if bb.peerID == nil || bb.peerID.HIT() != a.HIT() {
		t.Fatal("responder did not recover the encrypted identity")
	}
	// Data path unaffected.
	pkt, _, err := a.SealData(b.HIT(), []byte("private hello"), false)
	if err != nil {
		t.Fatal(err)
	}
	if got, _, err := b.OpenData(pkt, false); err != nil || string(got) != "private hello" {
		t.Fatalf("data: %q %v", got, err)
	}
}

func TestEncryptedHostIDTamperRejected(t *testing.T) {
	start := len(keymat.KeysOutstanding())
	w := newWire(t)
	a, _ := NewHost(Config{Identity: idA, Locator: locA, EncryptHostID: true})
	b := newHost(t, idB, locB)
	w.add(a, locA)
	w.add(b, locB)
	// Flip a ciphertext byte in the ENCRYPTED parameter of the I2.
	w.loss = func(from, to netip.Addr, data []byte) bool {
		pkt, err := hipwire.Parse(data)
		if err != nil || pkt.Type != hipwire.I2 {
			return false
		}
		for i := range pkt.Params {
			if pkt.Params[i].Type == hipwire.ParamEncrypted {
				mut := append([]byte(nil), pkt.Params[i].Data...)
				mut[len(mut)-1] ^= 0x40
				pkt.Params[i].Data = mut
			}
		}
		b.OnPacket(pkt.Marshal(), locA, w.now)
		return true // swallow the original
	}
	a.Connect(b.HIT(), locB, w.now)
	w.pump()
	if _, ok := b.Association(a.HIT()); ok {
		t.Fatal("tampered encrypted identity accepted")
	}
	keysBalanced(t, start, a, b)
}
