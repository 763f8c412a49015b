package hip

import (
	"net/netip"
	"testing"
	"time"

	"hipcloud/internal/esp"
	"hipcloud/internal/keymat"
)

func TestForceRekeySwapsSPIsAndKeys(t *testing.T) {
	w := newWire(t)
	a := newHost(t, idA, locA)
	b := newHost(t, idB, locB)
	w.add(a, locA)
	w.add(b, locB)
	establish(t, w, a, b)
	aa, _ := a.Association(b.HIT())
	bb, _ := b.Association(a.HIT())
	oldLocalA, oldRemoteA := aa.SPIs()

	// Traffic works before.
	pkt, _, err := a.SealData(b.HIT(), []byte("pre-rekey"), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.OpenData(pkt, false); err != nil {
		t.Fatal(err)
	}

	if err := a.ForceRekey(b.HIT(), w.now); err != nil {
		t.Fatal(err)
	}
	w.pump()

	newLocalA, newRemoteA := aa.SPIs()
	newLocalB, newRemoteB := bb.SPIs()
	if newLocalA == oldLocalA || newRemoteA == oldRemoteA {
		t.Fatalf("SPIs unchanged after rekey: local %d->%d remote %d->%d",
			oldLocalA, newLocalA, oldRemoteA, newRemoteA)
	}
	if newLocalA != newRemoteB || newRemoteA != newLocalB {
		t.Fatalf("SPI cross-match broken: a=(%d,%d) b=(%d,%d)",
			newLocalA, newRemoteA, newLocalB, newRemoteB)
	}
	if aa.Rekeys != 1 || bb.Rekeys != 1 {
		t.Fatalf("rekey counters: a=%d b=%d", aa.Rekeys, bb.Rekeys)
	}
	if aa.rekeying {
		t.Fatal("rekeying flag stuck")
	}

	// Traffic still flows under the new keys, both directions.
	pkt, _, err = a.SealData(b.HIT(), []byte("post-rekey a->b"), false)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := b.OpenData(pkt, false)
	if err != nil || string(got) != "post-rekey a->b" {
		t.Fatalf("a->b after rekey: %q %v", got, err)
	}
	pkt, _, err = b.SealData(a.HIT(), []byte("post-rekey b->a"), false)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err = a.OpenData(pkt, false)
	if err != nil || string(got) != "post-rekey b->a" {
		t.Fatalf("b->a after rekey: %q %v", got, err)
	}
}

func TestOldSPIRejectedAfterRekey(t *testing.T) {
	w := newWire(t)
	a := newHost(t, idA, locA)
	b := newHost(t, idB, locB)
	w.add(a, locA)
	w.add(b, locB)
	establish(t, w, a, b)

	// Capture a packet sealed under the old SA.
	stale, _, err := a.SealData(b.HIT(), []byte("stale"), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.ForceRekey(b.HIT(), w.now); err != nil {
		t.Fatal(err)
	}
	w.pump()
	if _, _, err := b.OpenData(stale, false); err == nil {
		t.Fatal("packet under retired SPI accepted after rekey")
	}
}

func TestMaintainTriggersRekeyAtThreshold(t *testing.T) {
	w := newWire(t)
	a, err := NewHost(Config{Identity: idA, Locator: locA, RekeyThreshold: 5})
	if err != nil {
		t.Fatal(err)
	}
	b := newHost(t, idB, locB)
	w.add(a, locA)
	w.add(b, locB)
	establish(t, w, a, b)
	aa, _ := a.Association(b.HIT())

	for i := 0; i < 6; i++ {
		pkt, _, err := a.SealData(b.HIT(), []byte("x"), false)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := b.OpenData(pkt, false); err != nil {
			t.Fatal(err)
		}
	}
	a.Maintain(w.now)
	w.pump()
	if aa.Rekeys != 1 {
		t.Fatalf("rekeys = %d after crossing threshold", aa.Rekeys)
	}
	// Maintain again below threshold: no second rekey.
	a.Maintain(w.now)
	w.pump()
	if aa.Rekeys != 1 {
		t.Fatalf("spurious extra rekey: %d", aa.Rekeys)
	}
	// Data still flows.
	pkt, _, err := a.SealData(b.HIT(), []byte("after"), false)
	if err != nil {
		t.Fatal(err)
	}
	if got, _, err := b.OpenData(pkt, false); err != nil || string(got) != "after" {
		t.Fatalf("post-maintain data: %q %v", got, err)
	}
}

func TestRepeatedRekeysStayInSync(t *testing.T) {
	w := newWire(t)
	a := newHost(t, idA, locA)
	b := newHost(t, idB, locB)
	w.add(a, locA)
	w.add(b, locB)
	establish(t, w, a, b)
	aa, _ := a.Association(b.HIT())
	for round := 1; round <= 5; round++ {
		if err := a.ForceRekey(b.HIT(), w.now); err != nil {
			t.Fatal(err)
		}
		w.pump()
		if aa.Rekeys != uint64(round) {
			t.Fatalf("round %d: rekeys = %d", round, aa.Rekeys)
		}
		msg := []byte{byte(round)}
		pkt, _, err := a.SealData(b.HIT(), msg, false)
		if err != nil {
			t.Fatalf("round %d seal: %v", round, err)
		}
		if got, _, err := b.OpenData(pkt, false); err != nil || got[0] != byte(round) {
			t.Fatalf("round %d data: %v %v", round, got, err)
		}
	}
}

// TestRekeysAndCloseWipeEveryKey: a base exchange, three rekeys and a
// CLOSE leave no key behind on either end. Each rekey wipes the ESP keys
// it displaces and carries the control keys into the successor set, and
// teardown wipes the rest.
func TestRekeysAndCloseWipeEveryKey(t *testing.T) {
	start := len(keymat.KeysOutstanding())
	w := newWire(t)
	a := newHost(t, idA, locA)
	b := newHost(t, idB, locB)
	w.add(a, locA)
	w.add(b, locB)
	establish(t, w, a, b)
	aa, _ := a.Association(b.HIT())
	for i := 0; i < 3; i++ {
		if err := a.ForceRekey(b.HIT(), w.now); err != nil {
			t.Fatal(err)
		}
		w.pump()
	}
	if aa.Rekeys != 3 {
		t.Fatalf("rekeys = %d, want 3", aa.Rekeys)
	}
	if err := a.Close(b.HIT(), w.now); err != nil {
		t.Fatal(err)
	}
	w.pump()
	if n := len(a.Associations()) + len(b.Associations()); n != 0 {
		t.Fatalf("%d associations left after CLOSE", n)
	}
	keysBalanced(t, start) // CLOSE retired both ends: nothing to shut down
}

func TestRekeyThresholdClampedNearSaturation(t *testing.T) {
	// A threshold configured at the very top of the sequence space must
	// still rekey strictly before SealData starts failing with
	// ErrSeqExhausted: the effective threshold is clamped to leave
	// rekeyHeadroom numbers of slack.
	w := newWire(t)
	a, err := NewHost(Config{Identity: idA, Locator: locA, RekeyThreshold: ^uint32(0)})
	if err != nil {
		t.Fatal(err)
	}
	b := newHost(t, idB, locB)
	w.add(a, locA)
	w.add(b, locB)
	establish(t, w, a, b)
	aa, _ := a.Association(b.HIT())

	if got, want := a.rekeyThreshold(), ^uint32(0)-rekeyHeadroom; got != want {
		t.Fatalf("clamped threshold = %d, want %d", got, want)
	}
	// Fast-forward the outbound SA to the clamp point and run upkeep.
	aa.ESP().Out.SetSeq(a.rekeyThreshold())
	a.Maintain(w.now)
	w.pump()
	if aa.Rekeys != 1 {
		t.Fatalf("rekeys = %d, want 1 (triggered before saturation)", aa.Rekeys)
	}
	// The fresh SA starts from sequence zero; sends keep working.
	pkt, _, err := a.SealData(b.HIT(), []byte("alive"), false)
	if err != nil {
		t.Fatalf("seal after near-limit rekey: %v", err)
	}
	if got, _, err := b.OpenData(pkt, false); err != nil || string(got) != "alive" {
		t.Fatalf("data after near-limit rekey: %q %v", got, err)
	}
}

func TestSeqSaturationErrorPropagates(t *testing.T) {
	// If an SA does hit 2^32−1 (upkeep never ran), the saturation error
	// must propagate out of SealData rather than silently dropping data.
	w := newWire(t)
	a := newHost(t, idA, locA)
	b := newHost(t, idB, locB)
	w.add(a, locA)
	w.add(b, locB)
	establish(t, w, a, b)
	aa, _ := a.Association(b.HIT())
	aa.ESP().Out.SetSeq(^uint32(0) - 1)
	if _, _, err := a.SealData(b.HIT(), []byte("last"), false); err != nil {
		t.Fatalf("seal one below saturation: %v", err)
	}
	if _, _, err := a.SealData(b.HIT(), []byte("over"), false); err != esp.ErrSeqExhausted {
		t.Fatalf("seal at saturation: err = %v, want esp.ErrSeqExhausted", err)
	}
	// Recovery: a rekey resets the outbound sequence space.
	if err := a.ForceRekey(b.HIT(), w.now); err != nil {
		t.Fatal(err)
	}
	w.pump()
	if _, _, err := a.SealData(b.HIT(), []byte("recovered"), false); err != nil {
		t.Fatalf("seal after recovery rekey: %v", err)
	}
}

func TestResponderInitiatedRekey(t *testing.T) {
	// Asymmetric traffic: the responder's outbound counter can cross the
	// threshold while the initiator's sits near zero, so the responder
	// must be able to start the rekey itself (the old initiator-only rule
	// left its SA to saturate).
	w := newWire(t)
	a := newHost(t, idA, locA)
	b, err := NewHost(Config{Identity: idB, Locator: locB, RekeyThreshold: 5})
	if err != nil {
		t.Fatal(err)
	}
	w.add(a, locA)
	w.add(b, locB)
	establish(t, w, a, b)
	aa, _ := a.Association(b.HIT())
	bb, _ := b.Association(a.HIT())

	for i := 0; i < 6; i++ {
		pkt, _, err := b.SealData(a.HIT(), []byte("push"), false)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := a.OpenData(pkt, false); err != nil {
			t.Fatal(err)
		}
	}
	b.Maintain(w.now)
	w.pump()
	if bb.Rekeys != 1 || aa.Rekeys != 1 {
		t.Fatalf("rekeys b=%d a=%d, want 1 each (responder-initiated)", bb.Rekeys, aa.Rekeys)
	}
	// Both directions flow under the new SAs.
	pkt, _, err := b.SealData(a.HIT(), []byte("b->a"), false)
	if err != nil {
		t.Fatal(err)
	}
	if got, _, err := a.OpenData(pkt, false); err != nil || string(got) != "b->a" {
		t.Fatalf("b->a after rekey: %q %v", got, err)
	}
	pkt, _, err = a.SealData(b.HIT(), []byte("a->b"), false)
	if err != nil {
		t.Fatal(err)
	}
	if got, _, err := b.OpenData(pkt, false); err != nil || string(got) != "a->b" {
		t.Fatalf("a->b after rekey: %q %v", got, err)
	}
}

func TestSimultaneousRekeyTieBreak(t *testing.T) {
	// Both ends start a rekey before either request is delivered. Exactly
	// one exchange must win (the base-exchange initiator's) — serving both
	// would double-draw the KEYMAT stream and desync the keys.
	w := newWire(t)
	a := newHost(t, idA, locA)
	b := newHost(t, idB, locB)
	w.add(a, locA)
	w.add(b, locB)
	establish(t, w, a, b)
	aa, _ := a.Association(b.HIT())
	bb, _ := b.Association(a.HIT())

	if err := a.ForceRekey(b.HIT(), w.now); err != nil {
		t.Fatal(err)
	}
	if err := b.ForceRekey(a.HIT(), w.now); err != nil {
		t.Fatal(err)
	}
	w.pump()
	w.advance(10 * time.Second) // drain any retransmissions
	if aa.rekeying || bb.rekeying {
		t.Fatalf("rekey stuck: a=%v b=%v", aa.rekeying, bb.rekeying)
	}
	if aa.Rekeys != 1 || bb.Rekeys != 1 {
		t.Fatalf("rekeys a=%d b=%d, want exactly 1 each", aa.Rekeys, bb.Rekeys)
	}
	la, ra := aa.SPIs()
	lb, rb := bb.SPIs()
	if la != rb || ra != lb {
		t.Fatalf("SPI cross-match broken after collision: a=(%d,%d) b=(%d,%d)", la, ra, lb, rb)
	}
	pkt, _, err := a.SealData(b.HIT(), []byte("a->b"), false)
	if err != nil {
		t.Fatal(err)
	}
	if got, _, err := b.OpenData(pkt, false); err != nil || string(got) != "a->b" {
		t.Fatalf("a->b after collision: %q %v", got, err)
	}
	pkt, _, err = b.SealData(a.HIT(), []byte("b->a"), false)
	if err != nil {
		t.Fatal(err)
	}
	if got, _, err := a.OpenData(pkt, false); err != nil || string(got) != "b->a" {
		t.Fatalf("b->a after collision: %q %v", got, err)
	}
}

func TestRekeyRequestRetransmissionHandled(t *testing.T) {
	// Drop the responder's confirmation once: the initiator retransmits
	// the request; the responder must resend the same confirmation
	// rather than deriving keys twice (which would desync KEYMAT).
	w := newWire(t)
	a := newHost(t, idA, locA)
	b := newHost(t, idB, locB)
	w.add(a, locA)
	w.add(b, locB)
	establish(t, w, a, b)
	aa, _ := a.Association(b.HIT())
	bb, _ := b.Association(a.HIT())

	drop := true
	w.loss = func(from, to netip.Addr, data []byte) bool {
		// Drop exactly one packet: the first confirmation from B.
		if drop && from == locB {
			drop = false
			return true
		}
		return false
	}
	if err := a.ForceRekey(b.HIT(), w.now); err != nil {
		t.Fatal(err)
	}
	w.pump()
	// Initiator still rekeying (confirmation lost); fire its timer.
	if !aa.rekeying {
		t.Fatal("expected pending rekey after dropped confirmation")
	}
	w.advance(2 * time.Second)
	if aa.rekeying {
		t.Fatal("rekey did not complete after retransmission")
	}
	if aa.Rekeys != 1 || bb.Rekeys != 1 {
		t.Fatalf("rekeys a=%d b=%d, want 1 each", aa.Rekeys, bb.Rekeys)
	}
	pkt, _, err := a.SealData(b.HIT(), []byte("ok"), false)
	if err != nil {
		t.Fatal(err)
	}
	if got, _, err := b.OpenData(pkt, false); err != nil || string(got) != "ok" {
		t.Fatalf("data after lossy rekey: %q %v", got, err)
	}
}
