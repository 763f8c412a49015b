package esp

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"testing"

	"hipcloud/internal/keymat"
)

// The AEAD wire format, pinned against an independent stdlib-GCM
// reconstruction: hdr(8) || ct(payload+2) || tag(16), nonce =
// salt || 0x00000000 || seq, AAD = hdr. No IV travels on the wire.
func TestAEADWireFormatReference(t *testing.T) {
	key := bytes.Repeat([]byte{0x42}, 16)
	salt := []byte{0xA1, 0xB2, 0xC3, 0xD4}
	sa, err := NewOutbound(777, keymat.SuiteAESGCM128, key, salt)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("reference payload")
	pkt, err := sa.Seal(payload)
	if err != nil {
		t.Fatal(err)
	}
	if want := HeaderLen + len(payload) + 2 + ICVLen; len(pkt) != want {
		t.Fatalf("packet length %d, want %d", len(pkt), want)
	}
	if got := binary.BigEndian.Uint32(pkt[0:]); got != 777 {
		t.Fatalf("SPI %d", got)
	}
	if got := binary.BigEndian.Uint32(pkt[4:]); got != 1 {
		t.Fatalf("seq %d", got)
	}

	// Independent decrypt.
	block, _ := aes.NewCipher(key)
	g, _ := cipher.NewGCM(block)
	nonce := make([]byte, 12)
	copy(nonce, salt)
	binary.BigEndian.PutUint32(nonce[8:], 1)
	pt, err := g.Open(nil, nonce, pkt[HeaderLen:], pkt[:HeaderLen])
	if err != nil {
		t.Fatalf("reference open: %v", err)
	}
	if !bytes.Equal(pt[:len(payload)], payload) {
		t.Fatal("reference plaintext mismatch")
	}
	if pt[len(pt)-2] != 0 || pt[len(pt)-1] != nextHeader {
		t.Fatalf("trailer %x", pt[len(pt)-2:])
	}
}

// Satellite bugfix check (ISSUE 10): the sequence-exhaustion refusal is
// the nonce-reuse backstop for implicit-IV AEAD. The final sequence
// number 2^32-1 seals exactly once; the next attempt hard-fails, so the
// counter — and therefore the nonce — can never wrap and repeat, even
// if a rekey never fires.
func TestAEADSeqExhaustionBoundary(t *testing.T) {
	for _, s := range aeadSuites {
		t.Run(s.String(), func(t *testing.T) {
			pi, pr := pairFor(t, s)
			pi.Out.SetSeq(^uint32(0) - 2)

			p1, err := pi.Out.SealAppend(nil, []byte("penultimate"))
			if err != nil {
				t.Fatalf("seq max-1: %v", err)
			}
			if got := binary.BigEndian.Uint32(p1[4:]); got != ^uint32(0)-1 {
				t.Fatalf("seq %d, want max-1", got)
			}
			p2, err := pi.Out.SealAppend(nil, []byte("final"))
			if err != nil {
				t.Fatalf("seq max: %v", err)
			}
			if got := binary.BigEndian.Uint32(p2[4:]); got != ^uint32(0) {
				t.Fatalf("seq %d, want max", got)
			}
			// The counter is saturated: every further seal fails, and the
			// sequence (= the nonce) does not move.
			for i := 0; i < 3; i++ {
				if _, err := pi.Out.SealAppend(nil, []byte("beyond")); err != ErrSeqExhausted {
					t.Fatalf("post-exhaustion err = %v, want ErrSeqExhausted", err)
				}
			}
			if pi.Out.Seq() != ^uint32(0) {
				t.Fatalf("seq moved after exhaustion: %d", pi.Out.Seq())
			}
			// Both boundary packets are genuine and decrypt.
			if got, err := pr.In.Open(p1); err != nil || string(got) != "penultimate" {
				t.Fatalf("open max-1: %q %v", got, err)
			}
			if got, err := pr.In.Open(p2); err != nil || string(got) != "final" {
				t.Fatalf("open max: %q %v", got, err)
			}
			// The rekey threshold (hip.Maintain) must sit strictly below
			// the hard stop so a healthy association never reaches it:
			// 2^32-1 - 2^16 < 2^32-1. Checked numerically here to keep the
			// invariant pinned next to the mechanism it protects.
			const headroom = 1 << 16
			if thr := ^uint32(0) - headroom; thr >= ^uint32(0) {
				t.Fatal("rekey clamp does not leave headroom")
			}
		})
	}
}

// Two packets must never be sealed under the same (key, nonce): the
// nonce is the sequence number, and sequence numbers are strictly
// increasing until exhaustion.
func TestAEADNonceUniqueness(t *testing.T) {
	pi, _ := pairFor(t, keymat.SuiteAESGCM128)
	seen := map[uint32]bool{}
	for i := 0; i < 1000; i++ {
		pkt, err := pi.Out.Seal([]byte("n"))
		if err != nil {
			t.Fatal(err)
		}
		seq := binary.BigEndian.Uint32(pkt[4:])
		if seen[seq] {
			t.Fatalf("sequence/nonce %d reused", seq)
		}
		seen[seq] = true
	}
}

// Batch output must be byte-identical to the sequential Append calls.
func TestSealBatchMatchesSequential(t *testing.T) {
	for _, s := range suites {
		a, _ := pairFor(t, s)
		b, _ := pairFor(t, s)
		payloads := [][]byte{
			[]byte(""), []byte("one"), bytes.Repeat([]byte{0xEE}, 600),
			bytes.Repeat([]byte{0x11}, 1400), []byte("five"),
		}
		dsts := make([][]byte, len(payloads))
		n, err := a.Out.SealBatch(dsts, payloads)
		if err != nil || n != len(payloads) {
			t.Fatalf("%v: SealBatch = %d, %v", s, n, err)
		}
		for i, p := range payloads {
			want, err := b.Out.SealAppend(nil, p)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dsts[i], want) {
				t.Fatalf("%v: batch packet %d differs from sequential", s, i)
			}
		}
	}
}

func TestOpenBatchMatchesSequential(t *testing.T) {
	for _, s := range suites {
		pi, pr := pairFor(t, s)
		_, prSeq := pairFor(t, s)
		payloads := [][]byte{
			[]byte("alpha"), []byte(""), bytes.Repeat([]byte{0x77}, 900), []byte("delta"),
		}
		pkts := make([][]byte, len(payloads))
		if n, err := pi.Out.SealBatch(pkts, payloads); err != nil || n != len(payloads) {
			t.Fatalf("%v: seal: %d, %v", s, n, err)
		}
		outs := make([][]byte, len(pkts))
		if drops := pr.In.OpenBatch(outs, pkts); drops != 0 {
			t.Fatalf("%v: drops = %d", s, drops)
		}
		for i, p := range pkts {
			want, err := prSeq.In.OpenAppend(nil, p)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(outs[i], want) || !bytes.Equal(outs[i], payloads[i]) {
				t.Fatalf("%v: batch payload %d mismatch", s, i)
			}
		}
	}
}

// A corrupt datagram inside a burst is dropped and counted without
// disturbing its neighbors — recvmmsg semantics.
func TestOpenBatchIsolatesCorruptPacket(t *testing.T) {
	pi, pr := pairFor(t, keymat.SuiteChaCha20Poly1305)
	payloads := [][]byte{[]byte("good-1"), []byte("bad"), []byte("good-2")}
	pkts := make([][]byte, len(payloads))
	if _, err := pi.Out.SealBatch(pkts, payloads); err != nil {
		t.Fatal(err)
	}
	pkts[1][len(pkts[1])-1] ^= 0x80
	outs := make([][]byte, len(pkts))
	drops := pr.In.OpenBatch(outs, pkts)
	if drops != 1 {
		t.Fatalf("drops = %d, want 1", drops)
	}
	if string(outs[0]) != "good-1" || string(outs[2]) != "good-2" {
		t.Fatalf("neighbors damaged: %q %q", outs[0], outs[2])
	}
	if outs[1] != nil {
		t.Fatalf("corrupt slot filled: %q", outs[1])
	}
	if pr.In.AuthFails != 1 {
		t.Fatalf("AuthFails = %d", pr.In.AuthFails)
	}
}

// SealBatch stops cleanly at sequence exhaustion: packets sealed before
// the boundary are valid, the count says how many.
func TestSealBatchStopsAtExhaustion(t *testing.T) {
	pi, pr := pairFor(t, keymat.SuiteAESGCM128)
	pi.Out.SetSeq(^uint32(0) - 2) // room for exactly two more packets
	payloads := [][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte("d")}
	dsts := make([][]byte, len(payloads))
	n, err := pi.Out.SealBatch(dsts, payloads)
	if err != ErrSeqExhausted {
		t.Fatalf("err = %v, want ErrSeqExhausted", err)
	}
	if n != 2 {
		t.Fatalf("sealed %d, want 2", n)
	}
	for i := 0; i < n; i++ {
		if got, err := pr.In.Open(dsts[i]); err != nil || string(got) != string(payloads[i]) {
			t.Fatalf("pre-boundary packet %d: %q %v", i, got, err)
		}
	}
	if dsts[2] != nil || dsts[3] != nil {
		t.Fatal("slots beyond the failure were touched")
	}
}

// AEAD overhead is the smallest of all suites (no wire IV, no padding)
// and SealedLen agrees with actual output across payload sizes.
func TestAEADOverheadAndSealedLen(t *testing.T) {
	for _, s := range aeadSuites {
		if got, want := Overhead(s), HeaderLen+2+ICVLen; got != want {
			t.Fatalf("%v: Overhead = %d, want %d", s, got, want)
		}
		pi, _ := pairFor(t, s)
		for _, n := range []int{0, 1, 15, 16, 17, 1400} {
			pkt, err := pi.Out.Seal(make([]byte, n))
			if err != nil {
				t.Fatal(err)
			}
			if len(pkt) != pi.Out.SealedLen(n) {
				t.Fatalf("%v: SealedLen(%d) = %d, packet %d", s, n, pi.Out.SealedLen(n), len(pkt))
			}
			if len(pkt) != n+Overhead(s) {
				t.Fatalf("%v: overhead drift at n=%d", s, n)
			}
		}
	}
}

// Zeroize leaves no key or salt material behind on AEAD SAs.
func TestAEADZeroize(t *testing.T) {
	pi, _ := pairFor(t, keymat.SuiteAESGCM256)
	if _, err := pi.Out.Seal([]byte("warm")); err != nil {
		t.Fatal(err)
	}
	encKey := pi.Out.encKey
	pi.Zeroize()
	for _, b := range encKey {
		if b != 0 {
			t.Fatal("encryption key not wiped")
		}
	}
	if pi.Out.tf != nil || pi.In.tf != nil {
		t.Fatal("transform reference retained")
	}
	if pi.Out.nonce != ([keymat.NonceLen]byte{}) {
		t.Fatal("nonce salt not wiped")
	}
}

func BenchmarkSealBatchGCM128_32x1400(b *testing.B) {
	pi, _ := pairForBench(b, keymat.SuiteAESGCM128)
	const batch = 32
	payloads := make([][]byte, batch)
	dsts := make([][]byte, batch)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{7}, 1400)
		dsts[i] = make([]byte, 0, pi.Out.SealedLen(1400))
	}
	b.SetBytes(batch * 1400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range dsts {
			dsts[j] = dsts[j][:0]
		}
		if _, err := pi.Out.SealBatch(dsts, payloads); err != nil {
			b.Fatal(err)
		}
	}
}
