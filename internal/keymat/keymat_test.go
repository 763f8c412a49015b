package keymat

import (
	"bytes"
	"crypto/ecdh"
	"crypto/rand"
	"encoding/hex"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
)

var (
	hitI = netip.MustParseAddr("2001:10::1")
	hitR = netip.MustParseAddr("2001:10::2")
)

func TestDeterministic(t *testing.T) {
	secret := []byte("shared-dh-secret")
	a := New(secret, hitI, hitR, 1, 2)
	b := New(secret, hitI, hitR, 1, 2)
	if !bytes.Equal(a.Draw(100), b.Draw(100)) {
		t.Fatal("same inputs produced different keymat")
	}
}

func TestHITOrderIndependent(t *testing.T) {
	secret := []byte("shared-dh-secret")
	a := New(secret, hitI, hitR, 1, 2)
	b := New(secret, hitR, hitI, 1, 2) // swapped: both peers must agree
	if !bytes.Equal(a.Draw(64), b.Draw(64)) {
		t.Fatal("keymat depends on HIT argument order")
	}
}

func TestDifferentInputsDiverge(t *testing.T) {
	base := New([]byte("secret"), hitI, hitR, 1, 2).Draw(32)
	cases := map[string]*Keymat{
		"secret":  New([]byte("Secret"), hitI, hitR, 1, 2),
		"puzzleI": New([]byte("secret"), hitI, hitR, 9, 2),
		"puzzleJ": New([]byte("secret"), hitI, hitR, 1, 9),
		"hits":    New([]byte("secret"), hitI, netip.MustParseAddr("2001:10::3"), 1, 2),
	}
	for name, k := range cases {
		if bytes.Equal(base, k.Draw(32)) {
			t.Errorf("%s: keymat did not change", name)
		}
	}
}

func TestDrawAcrossBlockBoundaries(t *testing.T) {
	k := New([]byte("s"), hitI, hitR, 0, 0)
	var joined []byte
	for i := 0; i < 20; i++ {
		joined = append(joined, k.Draw(7)...) // 140 bytes, crosses 32B blocks
	}
	k2 := New([]byte("s"), hitI, hitR, 0, 0)
	if !bytes.Equal(joined, k2.Draw(140)) {
		t.Fatal("chunked draws differ from one big draw")
	}
	if k.Drawn() != 140 {
		t.Fatalf("drawn = %d", k.Drawn())
	}
}

// TestStreamVector pins the KEYMAT stream byte for byte: a fixed Kij,
// HIT pair and puzzle I/J, drawn in chunks that end inside blocks, on
// their edges and across two of them.
func TestStreamVector(t *testing.T) {
	kij := make([]byte, 32)
	for i := range kij {
		kij[i] = byte(i)
	}
	k := New(kij, hitI, hitR, 0x0102030405060708, 0x1112131415161718)
	for i, d := range []struct {
		n    int
		want string
	}{
		{16, "ae5102c5c64d4bd80edd5c391ac6ca04"},
		{32, "1e29da4d3da0f603df952defcb87ea47f47b6fd339d18f68a5026a7dae7027ca"},
		{16, "21b9001bb823c2e15457d9bc60e2481c"},
		{32, "235e102af658ee1f6bd39fb300511f75d988e5e65616c2e4f27e839da92fc3d7"},
		{3, "b13f2a"},
		{29, "026294e7c0b33e11e1fb8271bd2b1fd3f7dc39862100feb7dae167edc6"},
		{1, "99"},
		{31, "5fd8949f943cbe072a8399fbbfcc9d835c89f064c0a2c5d99756ce36489631"},
		{64, "cd5b49535712ea9c16e776a9c74fd0690e8500476e3c109b9c57530a1d4c7823aa5aa04763a34722d1d2071c791ec0feb7e9418e6eeb38c3a4b57f40e62e3d53"},
		{5, "4080b687c5"},
	} {
		if got := hex.EncodeToString(k.Draw(d.n)); got != d.want {
			t.Errorf("draw %d (%d bytes) = %s, want %s", i, d.n, got, d.want)
		}
	}
	if k.Drawn() != 229 {
		t.Errorf("drawn = %d, want 229", k.Drawn())
	}
}

// TestZeroizeClearsStream checks that a wiped stream keeps no byte of
// Kij or of the block the last draws came from.
func TestZeroizeClearsStream(t *testing.T) {
	k := New([]byte("shared-dh-secret"), hitI, hitR, 1, 2)
	k.Draw(40)
	k.Zeroize()
	if !bytes.Equal(k.kij, make([]byte, len(k.kij))) || k.block != [32]byte{} || k.ij != [16]byte{} {
		t.Fatalf("stream state survives Zeroize: kij=%x block=%x ij=%x", k.kij, k.block, k.ij)
	}
}

// TestLedgerCountsWholeWipes drives the test-binary key ledger: every
// buffer the package hands out is outstanding, named by the function
// that asked for it, until Zeroize clears it whole.
func TestLedgerCountsWholeWipes(t *testing.T) {
	start := len(KeysOutstanding())
	k := New([]byte("dh"), hitI, hitR, 1, 2)
	a, b := k.Draw(16), k.Draw(4)
	c := Clone(a)
	left := KeysOutstanding()
	if len(left) != start+4 { // Kij, a, b, c
		t.Fatalf("%d keys outstanding, want 4: %q", len(left)-start, left[start:])
	}
	for _, site := range left[start:] {
		if !strings.HasPrefix(site, "keymat.TestLedgerCountsWholeWipes (keymat_test.go:") {
			t.Errorf("creation site %q does not name the test", site)
		}
	}
	Zeroize(a[:8]) // a prefix is not the key
	Zeroize(b[1:]) // nor is a tail
	Zeroize(nil)   // nor nothing
	Zeroize(c[:0]) // nor an empty view
	if n := len(KeysOutstanding()) - start; n != 4 {
		t.Fatalf("partial wipes counted: %d keys outstanding, want 4", n)
	}
	Zeroize(a)
	Zeroize(b)
	Zeroize(c)
	k.Zeroize()
	if left := KeysOutstanding(); len(left) != start {
		t.Fatalf("keys outstanding after every wipe: %q", left[start:])
	}
}

func TestSharedSecretAgrees(t *testing.T) {
	start := len(KeysOutstanding())
	a, _ := ecdh.P256().GenerateKey(rand.Reader)
	b, _ := ecdh.P256().GenerateKey(rand.Reader)
	ab, err := SharedSecret(a, b.PublicKey().Bytes())
	if err != nil {
		t.Fatal(err)
	}
	ba, err := SharedSecret(b, a.PublicKey().Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, ba) || len(ab) != 32 {
		t.Fatalf("shared secrets differ: %x vs %x", ab, ba)
	}
	if _, err := SharedSecret(a, []byte("not a point")); err == nil {
		t.Fatal("a malformed public key was accepted")
	}
	if n := len(KeysOutstanding()) - start; n != 2 {
		t.Fatalf("%d shared secrets outstanding, want 2", n)
	}
	Zeroize(ab)
	Zeroize(ba)
	if n := len(KeysOutstanding()) - start; n != 0 {
		t.Fatalf("%d shared secrets outstanding after the wipes", n)
	}
}

func TestDeriveAssociationMirrors(t *testing.T) {
	secret := []byte("dh")
	ki := New(secret, hitI, hitR, 5, 6)
	kr := New(secret, hitI, hitR, 5, 6)
	ak, err := DeriveAssociation(ki, SuiteAESCTRSHA256, true)
	if err != nil {
		t.Fatal(err)
	}
	bk, err := DeriveAssociation(kr, SuiteAESCTRSHA256, false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ak.HIPMacOut, bk.HIPMacIn) || !bytes.Equal(ak.HIPMacIn, bk.HIPMacOut) {
		t.Fatal("HIP mac keys do not mirror")
	}
	if !bytes.Equal(ak.ESPEncOut, bk.ESPEncIn) || !bytes.Equal(ak.ESPAuthOut, bk.ESPAuthIn) {
		t.Fatal("ESP out/in keys do not mirror")
	}
	if !bytes.Equal(ak.ESPEncIn, bk.ESPEncOut) || !bytes.Equal(ak.ESPAuthIn, bk.ESPAuthOut) {
		t.Fatal("ESP in/out keys do not mirror")
	}
	if bytes.Equal(ak.ESPEncOut, ak.ESPEncIn) {
		t.Fatal("directional keys identical")
	}
}

func TestDeriveAssociationNullSuite(t *testing.T) {
	k := New([]byte("dh"), hitI, hitR, 0, 0)
	ak, err := DeriveAssociation(k, SuiteNullSHA256, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(ak.ESPEncOut) != 0 || len(ak.ESPAuthOut) != 32 {
		t.Fatalf("null suite key lengths: enc=%d auth=%d", len(ak.ESPEncOut), len(ak.ESPAuthOut))
	}
}

func TestDeriveAssociationUnknownSuite(t *testing.T) {
	k := New([]byte("dh"), hitI, hitR, 0, 0)
	if _, err := DeriveAssociation(k, Suite(999), true); err != ErrUnknownSuite {
		t.Fatalf("err = %v", err)
	}
}

func TestNegotiate(t *testing.T) {
	got, err := Negotiate([]Suite{SuiteNullSHA256, SuiteAESCBCSHA256}, Preferred)
	if err != nil || got != SuiteAESCBCSHA256 {
		t.Fatalf("negotiated %v, %v", got, err)
	}
	if _, err := Negotiate([]Suite{Suite(77)}, Preferred); err != ErrUnknownSuite {
		t.Fatalf("err = %v, want ErrUnknownSuite", err)
	}
	// Responder preference order wins.
	got, _ = Negotiate([]Suite{SuiteAESCBCSHA256, SuiteAESCTRSHA256}, []Suite{SuiteAESCTRSHA256, SuiteAESCBCSHA256})
	if got != SuiteAESCTRSHA256 {
		t.Fatalf("responder preference not honored: %v", got)
	}
}

func TestSuiteKeyLens(t *testing.T) {
	for _, s := range Preferred {
		e, err := s.EncKeyLen()
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		a, err := s.AuthKeyLen()
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if a == 0 {
			t.Fatalf("%v: zero auth key", s)
		}
		if s != SuiteNullSHA256 && e == 0 {
			t.Fatalf("%v: zero enc key", s)
		}
	}
	if _, err := Suite(12345).EncKeyLen(); err == nil {
		t.Fatal("unknown suite enc len accepted")
	}
}

// Property: keymat is a pure function of (secret, hits, i, j) and draws of
// equal total length are identical regardless of chunking.
func TestKeymatChunkingProperty(t *testing.T) {
	f := func(secret []byte, i, j uint64, chunks []uint8) bool {
		if len(chunks) == 0 {
			return true
		}
		total := 0
		k1 := New(secret, hitI, hitR, i, j)
		var got []byte
		for _, c := range chunks {
			n := int(c%64) + 1
			total += n
			got = append(got, k1.Draw(n)...)
		}
		k2 := New(secret, hitI, hitR, i, j)
		return bytes.Equal(got, k2.Draw(total))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDeriveAssociation(b *testing.B) {
	secret := []byte("dh-shared-secret-bytes-0123456789ab")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := New(secret, hitI, hitR, 1, 2)
		keys, err := DeriveAssociation(k, SuiteAESCTRSHA256, true)
		if err != nil {
			b.Fatal(err)
		}
		keys.Zeroize()
		k.Zeroize()
	}
}
