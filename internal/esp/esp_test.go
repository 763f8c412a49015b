package esp

import (
	"bytes"
	"net/netip"
	"testing"
	"testing/quick"

	"hipcloud/internal/keymat"
)

var suites = []keymat.Suite{
	keymat.SuiteAESCTRSHA256,
	keymat.SuiteAESCBCSHA256,
	keymat.SuiteNullSHA256,
	keymat.SuiteAESGCM128,
	keymat.SuiteAESGCM256,
	keymat.SuiteChaCha20Poly1305,
}

// aeadSuites is the modern single-pass subset of suites.
var aeadSuites = []keymat.Suite{
	keymat.SuiteAESGCM128,
	keymat.SuiteAESGCM256,
	keymat.SuiteChaCha20Poly1305,
}

// keysFor derives matched initiator/responder association keys for a
// suite.
func keysFor(t *testing.T, s keymat.Suite) (ak, bk keymat.AssociationKeys) {
	t.Helper()
	hitI := netip.MustParseAddr("2001:10::1")
	hitR := netip.MustParseAddr("2001:10::2")
	ki := keymat.New([]byte("dh-secret"), hitI, hitR, 1, 2)
	kr := keymat.New([]byte("dh-secret"), hitI, hitR, 1, 2)
	ak, err := keymat.DeriveAssociation(ki, s, true)
	if err != nil {
		t.Fatal(err)
	}
	bk, err = keymat.DeriveAssociation(kr, s, false)
	if err != nil {
		t.Fatal(err)
	}
	return ak, bk
}

// pairFor builds matched initiator/responder SA pairs for a suite.
func pairFor(t *testing.T, s keymat.Suite) (*Pair, *Pair) {
	t.Helper()
	ak, bk := keysFor(t, s)
	// Initiator's inbound SPI 100, responder's inbound SPI 200.
	pi, err := NewPair(ak, 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := NewPair(bk, 200, 100)
	if err != nil {
		t.Fatal(err)
	}
	return pi, pr
}

func TestSealOpenRoundTrip(t *testing.T) {
	for _, s := range suites {
		pi, pr := pairFor(t, s)
		for _, payload := range [][]byte{
			[]byte(""), []byte("x"), []byte("hello esp"),
			bytes.Repeat([]byte{0xAA}, 15), bytes.Repeat([]byte{0xBB}, 16),
			bytes.Repeat([]byte{0xCC}, 1400),
		} {
			pkt, err := pi.Out.Seal(payload)
			if err != nil {
				t.Fatalf("%v seal: %v", s, err)
			}
			got, err := pr.In.Open(pkt)
			if err != nil {
				t.Fatalf("%v open(len=%d): %v", s, len(payload), err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("%v: payload mismatch len=%d", s, len(payload))
			}
		}
		// And the reverse direction.
		pkt, _ := pr.Out.Seal([]byte("reverse"))
		got, err := pi.In.Open(pkt)
		if err != nil || string(got) != "reverse" {
			t.Fatalf("%v reverse: %q %v", s, got, err)
		}
	}
}

func TestCiphertextDiffersFromPlaintext(t *testing.T) {
	pi, _ := pairFor(t, keymat.SuiteAESCTRSHA256)
	payload := bytes.Repeat([]byte("secret data "), 10)
	pkt, err := pi.Out.Seal(payload)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(pkt, payload[:16]) {
		t.Fatal("ciphertext leaks plaintext")
	}
}

func TestNullCipherLeavesPlaintext(t *testing.T) {
	pi, _ := pairFor(t, keymat.SuiteNullSHA256)
	payload := []byte("integrity only payload")
	pkt, _ := pi.Out.Seal(payload)
	if !bytes.Contains(pkt, payload) {
		t.Fatal("NULL suite should not encrypt")
	}
}

func TestTamperDetected(t *testing.T) {
	for _, s := range suites {
		pi, pr := pairFor(t, s)
		pkt, _ := pi.Out.Seal([]byte("authentic"))
		for _, idx := range []int{0, 4, HeaderLen + 1, len(pkt) - 1} {
			mut := append([]byte(nil), pkt...)
			mut[idx] ^= 0x40
			if _, err := pr.In.Open(mut); err == nil {
				t.Fatalf("%v: tampered byte %d accepted", s, idx)
			}
		}
	}
}

func TestReplayRejected(t *testing.T) {
	pi, pr := pairFor(t, keymat.SuiteAESCTRSHA256)
	pkt, _ := pi.Out.Seal([]byte("once"))
	if _, err := pr.In.Open(pkt); err != nil {
		t.Fatal(err)
	}
	if _, err := pr.In.Open(pkt); err != ErrReplay {
		t.Fatalf("replay err = %v, want ErrReplay", err)
	}
	if pr.In.Replays != 1 {
		t.Fatalf("replay counter = %d", pr.In.Replays)
	}
}

func TestReplayWindowToleratesReordering(t *testing.T) {
	pi, pr := pairFor(t, keymat.SuiteAESCTRSHA256)
	var pkts [][]byte
	for i := 0; i < 10; i++ {
		p, _ := pi.Out.Seal([]byte{byte(i)})
		pkts = append(pkts, p)
	}
	// Deliver out of order: 0,3,1,2,9,5,4 ...
	order := []int{0, 3, 1, 2, 9, 5, 4, 8, 6, 7}
	for _, i := range order {
		if _, err := pr.In.Open(pkts[i]); err != nil {
			t.Fatalf("reordered packet %d rejected: %v", i, err)
		}
	}
}

func TestReplayWindowDropsAncient(t *testing.T) {
	pi, pr := pairFor(t, keymat.SuiteAESCTRSHA256)
	old, _ := pi.Out.Seal([]byte("old"))
	// Advance well past the window.
	for i := 0; i < ReplayWindow+8; i++ {
		p, _ := pi.Out.Seal([]byte("fill"))
		if _, err := pr.In.Open(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pr.In.Open(old); err != ErrReplay {
		t.Fatalf("ancient packet err = %v, want ErrReplay", err)
	}
}

func TestWrongSPIRejected(t *testing.T) {
	pi, pr := pairFor(t, keymat.SuiteAESCTRSHA256)
	pkt, _ := pi.Out.Seal([]byte("hello"))
	pkt[3] ^= 0xff // corrupt SPI
	if _, err := pr.In.Open(pkt); err != ErrUnknownSPI {
		t.Fatalf("err = %v, want ErrUnknownSPI", err)
	}
}

func TestShortPacketRejected(t *testing.T) {
	_, pr := pairFor(t, keymat.SuiteAESCTRSHA256)
	if _, err := pr.In.Open(make([]byte, HeaderLen+ICVLen-1)); err != ErrShort {
		t.Fatalf("err = %v, want ErrShort", err)
	}
}

func TestMismatchedKeysFail(t *testing.T) {
	pi, _ := pairFor(t, keymat.SuiteAESCTRSHA256)
	// Build a receiver with different keymat.
	hitI := netip.MustParseAddr("2001:10::1")
	hitR := netip.MustParseAddr("2001:10::2")
	k := keymat.New([]byte("OTHER secret"), hitI, hitR, 1, 2)
	bk, _ := keymat.DeriveAssociation(k, keymat.SuiteAESCTRSHA256, false)
	pr, _ := NewPair(bk, 200, 100)
	pkt, _ := pi.Out.Seal([]byte("hi"))
	if _, err := pr.In.Open(pkt); err != ErrAuth {
		t.Fatalf("err = %v, want ErrAuth", err)
	}
	if pr.In.AuthFails != 1 {
		t.Fatalf("auth fail counter = %d", pr.In.AuthFails)
	}
}

func TestOverheadPositive(t *testing.T) {
	for _, s := range suites {
		if Overhead(s) < HeaderLen+ICVLen {
			t.Fatalf("%v overhead too small", s)
		}
	}
}

// Property: seal/open round-trips arbitrary payloads on all suites.
func TestSealOpenProperty(t *testing.T) {
	for _, s := range suites {
		pi, pr := pairFor(t, s)
		f := func(payload []byte) bool {
			pkt, err := pi.Out.Seal(payload)
			if err != nil {
				return false
			}
			got, err := pr.In.Open(pkt)
			if err != nil {
				return false
			}
			return bytes.Equal(got, payload)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
	}
}

// Property: the receiver never accepts two packets with the same sequence.
func TestNoDoubleAcceptProperty(t *testing.T) {
	pi, pr := pairFor(t, keymat.SuiteAESCTRSHA256)
	seen := map[uint32]bool{}
	var pkts [][]byte
	for i := 0; i < 50; i++ {
		p, _ := pi.Out.Seal([]byte("payload"))
		pkts = append(pkts, p, p) // every packet duplicated
	}
	accepted := 0
	for _, p := range pkts {
		if _, err := pr.In.Open(p); err == nil {
			seq := uint32(p[4])<<24 | uint32(p[5])<<16 | uint32(p[6])<<8 | uint32(p[7])
			if seen[seq] {
				t.Fatalf("sequence %d accepted twice", seq)
			}
			seen[seq] = true
			accepted++
		}
	}
	if accepted != 50 {
		t.Fatalf("accepted %d, want 50", accepted)
	}
}

func BenchmarkSealOpenCTR1400(b *testing.B) {
	pi, pr := pairForBench(b, keymat.SuiteAESCTRSHA256)
	payload := bytes.Repeat([]byte{7}, 1400)
	b.SetBytes(1400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt, err := pi.Out.Seal(payload)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pr.In.Open(pkt); err != nil {
			b.Fatal(err)
		}
	}
}

func pairForBench(b *testing.B, s keymat.Suite) (*Pair, *Pair) {
	b.Helper()
	hitI := netip.MustParseAddr("2001:10::1")
	hitR := netip.MustParseAddr("2001:10::2")
	ki := keymat.New([]byte("dh"), hitI, hitR, 1, 2)
	kr := keymat.New([]byte("dh"), hitI, hitR, 1, 2)
	ak, _ := keymat.DeriveAssociation(ki, s, true)
	bk, _ := keymat.DeriveAssociation(kr, s, false)
	pi, _ := NewPair(ak, 100, 200)
	pr, _ := NewPair(bk, 200, 100)
	return pi, pr
}
