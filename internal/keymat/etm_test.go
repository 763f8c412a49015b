package keymat

import (
	"bytes"
	"crypto/aes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"testing"
)

// retag appends the valid HMAC-SHA-256-128 tag over aad ‖ body, so tests
// and the fuzz harness can hand a composite arbitrary authenticated
// bodies — what only a key holder can produce.
func retag(authKey, aad, body []byte) []byte {
	h := hmac.New(sha256.New, authKey)
	h.Write(aad)
	h.Write(body)
	return append(append([]byte(nil), body...), h.Sum(nil)[:TagLen]...)
}

// refIV is the composites' IV rule from stdlib parts: AES_k(aad ‖ 0⁸).
func refIV(tb testing.TB, encKey, aad []byte) []byte {
	tb.Helper()
	block, err := aes.NewCipher(encKey)
	if err != nil {
		tb.Fatal(err)
	}
	iv := make([]byte, aes.BlockSize)
	copy(iv, aad)
	block.Encrypt(iv, iv)
	return iv
}

// Each composite's Zeroize wipes its IV/keystream scratch along
// with the keyed state (at the parent the SAs that owned this scratch
// left the last keystream block and derived IV behind).
func TestCompositeZeroizeWipesScratch(t *testing.T) {
	aad := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	pt := bytes.Repeat([]byte{0x6B}, 48)
	var nonce [NonceLen]byte
	base := func(t *testing.T, e *etm) {
		if e.mac.h != nil || e.mac.sum != [sha256.Size]byte{} {
			t.Error("keyed MAC state or digest scratch retained")
		}
		if e.block != nil || e.iv != [16]byte{} {
			t.Error("cipher block or IV scratch retained")
		}
	}
	use := func(a AEAD) {
		if _, err := a.Open(nil, &nonce, a.Seal(nil, &nonce, pt, aad), aad); err != nil {
			t.Fatal(err)
		}
		a.Zeroize()
	}

	n := newTestAEAD(t, SuiteNullSHA256, 0).(*nullHMAC)
	use(n)
	base(t, &n.etm)

	c := newTestAEAD(t, SuiteAESCTRSHA256, 8).(*ctrHMAC)
	c.Seal(nil, &nonce, pt, aad)
	if c.ks == [len(c.ks)]byte{} || c.iv == [16]byte{} {
		t.Fatal("test is vacuous: CTR scratch empty after a seal")
	}
	use(c)
	base(t, &c.etm)
	if c.ks != [len(c.ks)]byte{} {
		t.Error("CTR keystream chunk retained")
	}

	b := newTestAEAD(t, SuiteAESCBCSHA256, 16).(*cbcHMAC)
	use(b)
	base(t, &b.etm)
	if b.enc != nil || b.dec != nil {
		t.Error("CBC modes (chaining state) retained")
	}
}

// What Open refuses, and with which error: anything whose tag or explicit
// IV does not verify is ErrAuthFailed; an authenticated body Seal cannot
// have produced is ErrMalformed. No plaintext comes back either way.
func TestCompositeOpenRejects(t *testing.T) {
	aad := []byte{0, 0, 0, 200, 0, 0, 0, 9}
	var nonce [NonceLen]byte
	for _, tf := range transforms {
		if tf.s.IsAEAD() {
			continue
		}
		a := newTestAEAD(t, tf.s, tf.ivLen)
		enc, auth := testKeys(tf.s)
		sealed := a.Seal(nil, &nonce, bytes.Repeat([]byte{3}, 32), aad)
		check := func(name string, in []byte, want error) {
			t.Helper()
			if pt, err := a.Open(nil, &nonce, in, aad); err != want || pt != nil {
				t.Errorf("%v, %s: Open = %x, %v; want %v", tf, name, pt, err, want)
			}
		}
		for i := range sealed {
			flipped := append([]byte(nil), sealed...)
			flipped[i] ^= 0x10
			check("bit flip", flipped, ErrAuthFailed)
		}
		check("shorter than a tag", sealed[:TagLen-1], ErrAuthFailed)
		check("wrong aad", retag(auth, []byte("12345678"), sealed[:len(sealed)-TagLen]), ErrAuthFailed)
		if tf.ivLen > 0 {
			body := append([]byte(nil), sealed[:len(sealed)-TagLen]...)
			body[tf.ivLen-1] ^= 1
			check("re-MAC'd wrong explicit IV", retag(auth, aad, body), ErrAuthFailed)
			check("re-MAC'd body below the IV", retag(auth, aad, body[:tf.ivLen-1]), ErrMalformed)
		}
		if tf.s == SuiteAESCBCSHA256 {
			body := append(refIV(t, enc, aad)[:tf.ivLen:tf.ivLen], make([]byte, 21)...)
			check("re-MAC'd ciphertext not whole blocks", retag(auth, aad, body), ErrMalformed)
		}
		// An empty authenticated ciphertext is well formed: it opens to
		// nothing (ESP then refuses the missing trailer).
		var iv []byte
		if tf.ivLen > 0 {
			iv = refIV(t, enc, aad)[:tf.ivLen]
		}
		if pt, err := a.Open(nil, &nonce, retag(auth, aad, iv), aad); err != nil || len(pt) != 0 {
			t.Errorf("%v: empty ciphertext: %x, %v", tf, pt, err)
		}
	}
}

// FuzzCipherOpen drives every transform's Open past the tag check on
// arbitrary lengths. For the composites the harness holds the key, so it
// tags the fuzzer's body (and, when asked, plants the right explicit IV)
// and the IV compare, the CBC alignment check and the decrypt all run;
// whatever opens must re-seal to the identical bytes. For the AEADs it
// seals the body, then flips a bit or truncates: only the untouched
// packet may open.
func FuzzCipherOpen(f *testing.F) {
	for sel := range transforms {
		for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 32, 33, 48, 64} {
			f.Add(uint8(sel), true, uint64(n), make([]byte, n))
			f.Add(uint8(sel), false, uint64(n)<<3|5, bytes.Repeat([]byte{0xA5}, n))
		}
	}
	f.Fuzz(func(t *testing.T, sel uint8, good bool, seq uint64, in []byte) {
		tf := transforms[int(sel)%len(transforms)]
		a := newTestAEAD(t, tf.s, tf.ivLen)
		enc, auth := testKeys(tf.s)
		aad := binary.BigEndian.AppendUint64(nil, seq)
		var nonce [NonceLen]byte
		binary.BigEndian.PutUint64(nonce[SaltLen:], seq)
		body := append([]byte(nil), in...)

		if tf.s.IsAEAD() {
			sealed := a.Seal(nil, &nonce, body, aad)
			if !good {
				if cut := int(seq>>3) % (len(sealed) + 1); cut < len(sealed) && seq&4 != 0 {
					sealed = sealed[:cut]
				} else {
					sealed[int(seq>>3)%len(sealed)] ^= 1 << (seq & 3)
				}
			}
			pt, err := a.Open(nil, &nonce, sealed, aad)
			if good && (err != nil || !bytes.Equal(pt, body)) {
				t.Fatalf("%v: genuine packet: %v", tf.s, err)
			}
			if !good && (err != ErrAuthFailed || pt != nil) {
				t.Fatalf("%v: mutated packet opened: %x, %v", tf.s, pt, err)
			}
			return
		}

		if good && tf.ivLen > 0 && len(body) >= tf.ivLen {
			copy(body, refIV(t, enc, aad)[:tf.ivLen])
		}
		sealed := retag(auth, aad, body)
		pt, err := a.Open(nil, &nonce, sealed, aad)
		if err != nil {
			if (err != ErrAuthFailed && err != ErrMalformed) || pt != nil {
				t.Fatalf("%v: Open = %x, %v", tf, pt, err)
			}
			return
		}
		if len(pt) != len(body)-tf.ivLen {
			t.Fatalf("%v: %d-byte body opened to %d bytes", tf, len(body), len(pt))
		}
		if again := a.Seal(nil, &nonce, pt, aad); !bytes.Equal(again, sealed) {
			t.Fatalf("%v: opened body does not re-seal to itself", tf)
		}
	})
}
