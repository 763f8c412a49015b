package keymat

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"testing"
)

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex: %v", err)
	}
	return b
}

// RFC 8439 §2.8.2: the full AEAD construction test vector.
func TestChaChaPolyRFC8439Vector(t *testing.T) {
	key := unhex(t, "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f")
	var nonce [NonceLen]byte
	copy(nonce[:], unhex(t, "070000004041424344454647"))
	aad := unhex(t, "50515253c0c1c2c3c4c5c6c7")
	plaintext := []byte("Ladies and Gentlemen of the class of '99: If I could offer you " +
		"only one tip for the future, sunscreen would be it.")
	wantCT := unhex(t, "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5"+
		"a736ee62d63dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd"+
		"3b3692ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc3f"+
		"f4def08e4b7a9de576d26586cec64b6116")
	wantTag := unhex(t, "1ae10b594f09e26a7e902ecbd0600691")

	c, err := NewChaChaPoly(key)
	if err != nil {
		t.Fatal(err)
	}
	sealed := c.Seal(nil, &nonce, plaintext, aad)
	if !bytes.Equal(sealed[:len(plaintext)], wantCT) {
		t.Fatalf("ciphertext mismatch:\n got %x\nwant %x", sealed[:len(plaintext)], wantCT)
	}
	if !bytes.Equal(sealed[len(plaintext):], wantTag) {
		t.Fatalf("tag mismatch: got %x want %x", sealed[len(plaintext):], wantTag)
	}

	opened, err := c.Open(nil, &nonce, sealed, aad)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if !bytes.Equal(opened, plaintext) {
		t.Fatal("round-trip mismatch")
	}
}

// RFC 8439 §2.6.2: the Poly1305 one-time key derived from ChaCha20
// block 0 (exercises the block function and init clamping together).
func TestChaChaPolyOneTimeKeyVector(t *testing.T) {
	key := unhex(t, "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f")
	var nonce [NonceLen]byte
	copy(nonce[:], unhex(t, "000000000001020304050607"))
	want := unhex(t, "8ad5a08b905f81cc815040274ab29471a833b637e3fd0da508dbb8e2fdd1a646")

	c, err := NewChaChaPoly(key)
	if err != nil {
		t.Fatal(err)
	}
	var block [64]byte
	c.chachaBlock(0, &nonce, &block)
	if !bytes.Equal(block[:32], want) {
		t.Fatalf("one-time key mismatch:\n got %x\nwant %x", block[:32], want)
	}
}

func TestChaChaPolyRejectsTamper(t *testing.T) {
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i)
	}
	c, err := NewChaChaPoly(key)
	if err != nil {
		t.Fatal(err)
	}
	var nonce [NonceLen]byte
	pt := []byte("attack at dawn")
	aad := []byte("hdr")
	sealed := c.Seal(nil, &nonce, pt, aad)

	for i := range sealed {
		mut := bytes.Clone(sealed)
		mut[i] ^= 0x40
		if _, err := c.Open(nil, &nonce, mut, aad); err == nil {
			t.Fatalf("accepted ciphertext with byte %d flipped", i)
		}
	}
	if _, err := c.Open(nil, &nonce, sealed, []byte("hdr!")); err == nil {
		t.Fatal("accepted wrong aad")
	}
	if _, err := c.Open(nil, &nonce, sealed[:TagLen-1], aad); err == nil {
		t.Fatal("accepted short ciphertext")
	}
}

func TestChaChaPolyEmptyPlaintext(t *testing.T) {
	key := make([]byte, 32)
	c, err := NewChaChaPoly(key)
	if err != nil {
		t.Fatal(err)
	}
	var nonce [NonceLen]byte
	sealed := c.Seal(nil, &nonce, nil, []byte("aad only"))
	if len(sealed) != TagLen {
		t.Fatalf("sealed length %d, want %d", len(sealed), TagLen)
	}
	out, err := c.Open(nil, &nonce, sealed, []byte("aad only"))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("opened %d bytes, want 0", len(out))
	}
}

// transform names one NewAEAD configuration; its subtest name is the
// suite's, suffixed when an explicit IV is on.
type transform struct {
	s     Suite
	ivLen int
}

func (tf transform) String() string {
	if tf.ivLen == 0 {
		return tf.s.String()
	}
	return fmt.Sprintf("%v-iv%d", tf.s, tf.ivLen)
}

// transforms is the whole registry as NewAEAD builds it, with the
// explicit-IV lengths the two record layers use (ESP-CTR 8, ESP-CBC 16,
// tlslite and every other suite 0).
var transforms = []transform{
	{SuiteNullSHA256, 0}, {SuiteAESCTRSHA256, 0}, {SuiteAESCTRSHA256, 8},
	{SuiteAESCBCSHA256, 0}, {SuiteAESCBCSHA256, 16},
	{SuiteAESGCM128, 0}, {SuiteAESGCM256, 0}, {SuiteChaCha20Poly1305, 0},
}

// testKeys returns deterministic keys of the suite's registry lengths.
func testKeys(s Suite) (enc, auth []byte) {
	el, _ := s.EncKeyLen()
	al, _ := s.AuthKeyLen()
	enc, auth = make([]byte, el), make([]byte, al)
	for i := range enc {
		enc[i] = byte(i + 1)
	}
	for i := range auth {
		auth[i] = byte(0xA0 + i)
	}
	return enc, auth
}

func newTestAEAD(tb testing.TB, s Suite, ivLen int) AEAD {
	tb.Helper()
	enc, auth := testKeys(s)
	a, err := NewAEAD(s, enc, auth, ivLen)
	if err != nil {
		tb.Fatal(err)
	}
	return a
}

// In-place operation on every transform, the pattern both record layers
// rely on: the plaintext sits where its ciphertext will land — behind
// the explicit IV when there is one — and Open's output lands back on
// the ciphertext it came from.
func TestAEADInPlace(t *testing.T) {
	for _, tf := range transforms {
		t.Run(tf.String(), func(t *testing.T) {
			a := newTestAEAD(t, tf.s, tf.ivLen)
			var nonce [NonceLen]byte
			nonce[11] = 7
			pt := []byte("in-place payload 0123456789abcdef!")[:32] // whole blocks for CBC
			aad := []byte{0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 1}

			region := make([]byte, tf.ivLen+len(pt), tf.ivLen+len(pt)+TagLen)
			copy(region[tf.ivLen:], pt)
			sealed := a.Seal(region[:0], &nonce, region[tf.ivLen:], aad)
			if &sealed[0] != &region[0] {
				t.Fatal("seal did not operate in place")
			}
			if len(sealed) != tf.ivLen+len(pt)+TagLen {
				t.Fatalf("sealed length %d", len(sealed))
			}
			ref := a.Seal(nil, &nonce, pt, aad)
			if !bytes.Equal(sealed, ref) {
				t.Fatal("in-place seal differs from append seal")
			}

			opened, err := a.Open(sealed[tf.ivLen:tf.ivLen], &nonce, sealed, aad)
			if err != nil {
				t.Fatal(err)
			}
			if &opened[0] != &region[tf.ivLen] {
				t.Fatal("open did not operate in place")
			}
			if !bytes.Equal(opened, pt) {
				t.Fatal("in-place open mismatch")
			}
		})
	}
}

func TestAEADSealOpenZeroAlloc(t *testing.T) {
	for _, tf := range transforms {
		t.Run(tf.String(), func(t *testing.T) {
			a := newTestAEAD(t, tf.s, tf.ivLen)
			nonce := new([NonceLen]byte)
			pt := make([]byte, 1408)
			buf := make([]byte, 0, tf.ivLen+len(pt)+TagLen)
			aad := make([]byte, 8)

			sealAllocs := testing.AllocsPerRun(100, func() {
				nonce[11]++
				aad[7]++
				buf = a.Seal(buf[:0], nonce, pt, aad)
			})
			if sealAllocs != 0 {
				t.Fatalf("Seal allocates %.1f per op, want 0", sealAllocs)
			}

			nonce[11]++
			sealed := a.Seal(nil, nonce, pt, aad)
			out := make([]byte, 0, len(pt))
			openAllocs := testing.AllocsPerRun(100, func() {
				var err error
				out, err = a.Open(out[:0], nonce, sealed, aad)
				if err != nil {
					t.Fatal(err)
				}
			})
			if openAllocs != 0 {
				t.Fatalf("Open allocates %.1f per op, want 0", openAllocs)
			}
		})
	}
}

// The single constructor refuses unregistered suites and, for every
// registered one, keys that are not exactly the registry's lengths — at
// the parent AES-256 ran silently under an AES-128 suite and a 5-byte
// HMAC key was accepted.
func TestNewAEADCipherErrors(t *testing.T) {
	if _, err := NewAEAD(Suite(999), nil, nil, 0); err != ErrUnknownSuite {
		t.Fatalf("unknown suite: err = %v", err)
	}
	for _, tf := range transforms {
		enc, auth := testKeys(tf.s)
		for _, bad := range [][2][]byte{
			{append(enc, 0), auth}, {enc, append(auth, 0)},
			{make([]byte, 48-len(enc)), auth}, {enc, auth[:len(auth)-1]},
		} {
			if _, err := NewAEAD(tf.s, bad[0], bad[1], tf.ivLen); err != ErrKeyLen {
				t.Fatalf("%v: enc %d / auth %d bytes: err = %v, want ErrKeyLen", tf.s, len(bad[0]), len(bad[1]), err)
			}
		}
	}
	if _, err := NewChaChaPoly(make([]byte, 16)); err == nil {
		t.Fatal("wrong chacha key length accepted")
	}
}

func BenchmarkSealChaCha20Poly1305_1400(b *testing.B) {
	benchAEADSeal(b, SuiteChaCha20Poly1305)
}

func BenchmarkSealAESGCM128_1400(b *testing.B) {
	benchAEADSeal(b, SuiteAESGCM128)
}

func benchAEADSeal(b *testing.B, s Suite) {
	a := newTestAEAD(b, s, 0)
	nonce := new([NonceLen]byte)
	pt := make([]byte, 1400)
	buf := make([]byte, 0, len(pt)+TagLen)
	aad := make([]byte, 8)
	b.SetBytes(int64(len(pt)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		nonce[11] = byte(i)
		buf = a.Seal(buf[:0], nonce, pt, aad)
	}
}
