package tlslite

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"testing"

	"hipcloud/internal/keymat"
)

// registry is every suite keymat registers (PreferredSuites is the four
// with a record-layer mapping).
var registry = []keymat.Suite{
	keymat.SuiteAESCTRSHA256, keymat.SuiteAESCBCSHA256, keymat.SuiteNullSHA256,
	keymat.SuiteAESGCM128, keymat.SuiteAESGCM256, keymat.SuiteChaCha20Poly1305,
}

// newConn refuses keys that are not exactly the registry's lengths, for
// every suite and either direction's slot. At the parent the legacy path
// ran AES-256 under the AES-128 suite and took any HMAC key length.
func TestNewConnKeyLengthsChecked(t *testing.T) {
	for _, s := range registry {
		encLen, _ := s.EncKeyLen()
		authLen, _ := s.AuthKeyLen()
		enc, auth := make([]byte, encLen), make([]byte, authLen)
		if _, err := newConn(&bytes.Buffer{}, Config{}, s, enc, auth, enc, auth, true, nil); err != nil {
			t.Fatalf("%v: registry-length keys refused: %v", s, err)
		}
		badEnc, badAuth := make([]byte, 48-encLen), make([]byte, authLen+1)
		for i, k := range [][4][]byte{
			{badEnc, auth, enc, auth}, {enc, badAuth, enc, auth},
			{enc, auth, badEnc, auth}, {enc, auth, enc, badAuth},
		} {
			for _, isClient := range []bool{true, false} {
				if _, err := newConn(&bytes.Buffer{}, Config{}, s, k[0], k[1], k[2], k[3], isClient, nil); err != keymat.ErrKeyLen {
					t.Errorf("%v: bad key in slot %d (client=%v): err = %v, want ErrKeyLen", s, i, isClient, err)
				}
			}
		}
	}
}

// Close wipes the record keys: a closed Conn holds no transform and no
// salt, and refuses both directions. At the parent Close wiped nothing.
func TestCloseWipesRecordKeys(t *testing.T) {
	for _, s := range PreferredSuites {
		a, b := connPairSuite(t, s)
		if _, err := a.Write([]byte("before close")); err != nil {
			t.Fatal(err)
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		if a.out != nil || a.in != nil {
			t.Errorf("%v: closed Conn still holds a transform", s)
		}
		if a.outNonce != ([keymat.NonceLen]byte{}) || a.inNonce != ([keymat.NonceLen]byte{}) {
			t.Errorf("%v: closed Conn still holds a nonce salt", s)
		}
		if _, err := a.Write([]byte("x")); err != ErrClosed {
			t.Errorf("%v: Write after Close: %v", s, err)
		}
		if _, err := a.Read(make([]byte, 8)); err != ErrClosed {
			t.Errorf("%v: Read after Close: %v", s, err)
		}
		if err := a.Close(); err != nil {
			t.Errorf("%v: second Close: %v", s, err)
		}
		// The peer still reads what was sent before the alert.
		buf := make([]byte, 32)
		if n, err := b.Read(buf); err != nil || string(buf[:n]) != "before close" {
			t.Errorf("%v: peer read %q, %v", s, buf[:n], err)
		}
		if _, err := b.Read(buf); err != ErrClosed {
			t.Errorf("%v: peer read past the alert: %v", s, err)
		}
	}
}

// The transforms own their keyed state: wiping the directional key slices
// once the Conn is built (what establish does after every handshake) does
// not disturb it.
func TestConnSurvivesWipedKeys(t *testing.T) {
	for _, s := range PreferredSuites {
		encLen, _ := s.EncKeyLen()
		authLen, _ := s.AuthKeyLen()
		keys := [4][]byte{
			bytes.Repeat([]byte{0x31}, encLen), bytes.Repeat([]byte{0x11}, authLen),
			bytes.Repeat([]byte{0x64}, encLen), bytes.Repeat([]byte{0x22}, authLen),
		}
		lb := &bytes.Buffer{}
		a, err := newConn(lb, Config{}, s, keys[0], keys[1], keys[2], keys[3], true, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newConn(lb, Config{}, s, keys[0], keys[1], keys[2], keys[3], false, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			keymat.Zeroize(k)
		}
		msg := bytes.Repeat([]byte("wiped keys "), 200)
		if _, err := a.Write(msg); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(msg))
		if n, err := b.Read(got); err != nil || !bytes.Equal(got[:n], msg) {
			t.Fatalf("%v: round trip after wiping the key slices: %v", s, err)
		}
	}
}

// FuzzOpenRecord fuzzes the record layer from both ends. Raw: the bytes
// go onto the stream and Conn.Read parses header, length, type and body —
// it must fail cleanly, never panic or hand back data. Authenticated: the
// harness holds the keys, so on the legacy suite it tags the fuzzer's
// body itself and decryption runs on arbitrary lengths (whatever opens
// must re-seal to the same bytes); on the AEAD suites it seals the body,
// then flips a bit or truncates, and only the untouched record may open.
func FuzzOpenRecord(f *testing.F) {
	for sel := range PreferredSuites {
		for _, n := range []int{0, 1, 2, 3, 15, 16, 17, 18, 19, 20, 35, 1400} {
			f.Add(uint8(sel), true, uint16(n), make([]byte, n))
			f.Add(uint8(sel), false, uint16(n*8+5), bytes.Repeat([]byte{0xC3}, n))
		}
	}
	f.Add(uint8(0), false, uint16(0), []byte{recAppData, 0, 16, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add(uint8(0), false, uint16(0), []byte{recAppData, 0xFF, 0xFF})
	f.Add(uint8(0), false, uint16(0), []byte{recAlert, 0, 1, 0})
	f.Add(uint8(0), false, uint16(0), []byte{recHandshake, 0, 0})
	f.Fuzz(func(t *testing.T, sel uint8, good bool, mut uint16, in []byte) {
		s := PreferredSuites[int(sel)%len(PreferredSuites)]

		// Raw bytes through the framing.
		_, b := connPairSuite(t, s)
		b.stream.(*bytes.Buffer).Write(in)
		buf := make([]byte, 64)
		for {
			n, err := b.Read(buf)
			if err != nil {
				break
			}
			if n > 0 {
				t.Fatalf("%v: Read returned %d bytes of unauthenticated input", s, n)
			}
		}

		// An authenticated record, as-is or damaged.
		a, b := connPairSuite(t, s)
		var rec []byte
		if s == legacySuite {
			h := hmac.New(sha256.New, bytes.Repeat([]byte{0x11}, 32)) // connPairSuite's client auth key
			h.Write(binary.BigEndian.AppendUint64(nil, 1))
			h.Write(in)
			rec = append(append([]byte(nil), in...), h.Sum(nil)[:macLen]...)
		} else {
			rec = a.sealRecord(in)
		}
		if !good {
			if cut := int(mut>>3) % len(rec); mut&4 != 0 {
				rec = rec[:cut]
			} else {
				rec[cut] ^= 1 << (mut & 3)
			}
		}
		pt, err := b.openRecord(rec)
		if !good {
			if (err != ErrBadMAC && err != ErrBadRecord) || pt != nil {
				t.Fatalf("%v: damaged record opened: %x, %v", s, pt, err)
			}
			return
		}
		if err != nil || len(pt) != len(in) {
			t.Fatalf("%v: authenticated %d-byte record: %d bytes, %v", s, len(in), len(pt), err)
		}
		if s == legacySuite {
			if again := a.sealRecord(pt); !bytes.Equal(again, rec) {
				t.Fatal("opened record does not re-seal to itself")
			}
		} else if !bytes.Equal(pt, in) {
			t.Fatalf("%v: plaintext mismatch", s)
		}
	})
}
