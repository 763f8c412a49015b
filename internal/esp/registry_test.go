package esp

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"hipcloud/internal/keymat"
)

// Tests that run across the whole suite registry rather than per family.

// SealedLen, Overhead and MaxOverhead agree with what Seal produces for
// every suite and every payload residue.
func TestSealedLenAndOverheadAcrossRegistry(t *testing.T) {
	for _, s := range suites {
		pi, pr := pairFor(t, s)
		worst := 0
		for n := 0; n <= 64; n++ {
			payload := bytes.Repeat([]byte{byte(n)}, n)
			pkt, err := pi.Out.Seal(payload)
			if err != nil {
				t.Fatal(err)
			}
			if want := pi.Out.SealedLen(n); len(pkt) != want {
				t.Fatalf("%v: SealedLen(%d) = %d, packet is %d", s, n, want, len(pkt))
			}
			worst = max(worst, len(pkt)-n)
			if got, err := pr.In.Open(pkt); err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("%v n=%d: round trip: %v", s, n, err)
			}
		}
		if Overhead(s) != worst {
			t.Fatalf("%v: Overhead = %d, largest observed expansion %d", s, Overhead(s), worst)
		}
		if MaxOverhead < Overhead(s) {
			t.Fatalf("%v: MaxOverhead %d < Overhead %d", s, MaxOverhead, Overhead(s))
		}
	}
}

// Keys that are not exactly the registry's lengths are refused for every
// suite in both directions. At the parent a 32-byte key ran AES-256 under
// a suite registered as AES-128, a 5-byte HMAC key was accepted and NULL
// took a stray encryption key.
func TestKeyLengthsChecked(t *testing.T) {
	for _, s := range suites {
		ak, _ := keysFor(t, s)
		enc, auth := ak.ESPEncOut, ak.ESPAuthOut
		for _, bad := range [][2][]byte{
			{make([]byte, 48-len(enc)), auth}, // 16<->32, NULL gets a stray key
			{append([]byte{0}, enc...), auth},
			{enc, make([]byte, 5)},
			{enc, append([]byte{0}, auth...)},
		} {
			if _, err := NewOutbound(1, s, bad[0], bad[1]); err != keymat.ErrKeyLen {
				t.Errorf("%v: NewOutbound(enc %d, auth %d bytes) err = %v, want ErrKeyLen", s, len(bad[0]), len(bad[1]), err)
			}
			if _, err := NewInbound(1, s, bad[0], bad[1]); err != keymat.ErrKeyLen {
				t.Errorf("%v: NewInbound(enc %d, auth %d bytes) err = %v, want ErrKeyLen", s, len(bad[0]), len(bad[1]), err)
			}
		}
	}
	if _, err := NewOutbound(1, keymat.Suite(999), nil, nil); err != keymat.ErrUnknownSuite {
		t.Errorf("unknown suite: err = %v", err)
	}
}

// forge seals an arbitrary plaintext body under the initiator's outbound
// keys — what only a key holder can do — so the receiver's checks past
// authentication can be exercised.
func forge(t *testing.T, s keymat.Suite, seq uint32, plaintext []byte) []byte {
	t.Helper()
	ak, _ := keysFor(t, s)
	ivLen, _ := shape(s)
	tf, err := keymat.NewAEAD(s, ak.ESPEncOut, ak.ESPAuthOut, ivLen)
	if err != nil {
		t.Fatal(err)
	}
	hdr := binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(nil, 200), seq)
	var nonce [keymat.NonceLen]byte
	if s.IsAEAD() {
		copy(nonce[:], ak.ESPAuthOut)
	}
	binary.BigEndian.PutUint32(nonce[8:], seq)
	return tf.Seal(hdr[:HeaderLen:HeaderLen], &nonce, plaintext, hdr)
}

// A body that authenticates but is malformed returns an error — never a
// panic — and leaves the replay window where it was, on every suite.
func TestAuthenticatedMalformedBodyRejected(t *testing.T) {
	for _, s := range suites {
		_, padBlock := shape(s)
		// body pads a short plaintext out to the suite's block so the CBC
		// transform accepts it; the last two bytes are the trailer.
		body := func(head []byte, padLen byte) []byte {
			b := append([]byte(nil), head...)
			for (len(b)+2)%padBlock != 0 {
				b = append(b, 0xEE)
			}
			return append(b, padLen, nextHeader)
		}
		cases := map[string][]byte{
			"pad length past the payload": forge(t, s, 2, body([]byte{1, 2, 3}, 200)),
			"pad bytes not monotonic":     forge(t, s, 2, body([]byte{9, 9, 9, 7, 7}, 2)),
		}
		if padBlock == 1 {
			cases["body shorter than the trailer"] = forge(t, s, 2, []byte{nextHeader})
			cases["empty body"] = forge(t, s, 2, nil)
		}
		if ak, _ := keysFor(t, s); !s.IsAEAD() {
			// Cut a genuine packet's body and re-MAC it.
			pi, _ := pairFor(t, s)
			pi.Out.Seal(nil)
			genuine, _ := pi.Out.Seal(bytes.Repeat([]byte{5}, 40)) // seq 2
			recut := func(bodyLen int) []byte {
				p := append([]byte(nil), genuine[:HeaderLen+bodyLen+ICVLen]...)
				reMAC(ak.ESPAuthOut, p)
				return p
			}
			switch s {
			case keymat.SuiteAESCTRSHA256:
				cases["truncated below the explicit IV"] = recut(5)
				cases["explicit IV only"] = recut(8)
			case keymat.SuiteAESCBCSHA256:
				cases["truncated below the explicit IV"] = recut(10)
				cases["explicit IV only"] = recut(16)
				cases["ciphertext not whole blocks"] = recut(16 + 21)
			}
		}
		for name, pkt := range cases {
			_, pr := pairFor(t, s)
			first := forge(t, s, 1, body([]byte("ok"), 0))
			if _, err := pr.In.Open(first); err != nil {
				t.Fatalf("%v: well-formed forged packet rejected: %v", s, err)
			}
			highest, window, fails := pr.In.highest, pr.In.window, pr.In.AuthFails
			got, err := pr.In.Open(pkt)
			if err != ErrShort && err != ErrPad {
				t.Errorf("%v, %s: Open = %x, %v; want ErrShort or ErrPad", s, name, got, err)
			}
			if pr.In.highest != highest || pr.In.window != window {
				t.Errorf("%v, %s: replay window advanced", s, name)
			}
			if pr.In.AuthFails != fails {
				t.Errorf("%v, %s: counted as an authentication failure", s, name)
			}
		}
	}
}

// The explicit IV is authenticated and must also be the one the receiver
// derives: a key holder's packet with a different IV is refused as an
// authentication failure (the parent did so for CTR only; CBC decrypted
// under whatever IV arrived).
func TestExplicitIVMustMatchDerived(t *testing.T) {
	for _, s := range []keymat.Suite{keymat.SuiteAESCTRSHA256, keymat.SuiteAESCBCSHA256} {
		ak, _ := keysFor(t, s)
		pi, pr := pairFor(t, s)
		pkt, _ := pi.Out.Seal([]byte("payload"))
		pkt[HeaderLen+3] ^= 0x80
		reMAC(ak.ESPAuthOut, pkt)
		if _, err := pr.In.Open(pkt); err != ErrAuth || pr.In.AuthFails != 1 {
			t.Fatalf("%v: err = %v, AuthFails = %d; want ErrAuth, 1", s, err, pr.In.AuthFails)
		}
		if pr.In.highest != 0 || pr.In.window != 0 {
			t.Fatalf("%v: replay window advanced", s)
		}
	}
}

// nonZeroBytes walks everything reachable from v and reports the path of
// the first byte array or byte slice holding a non-zero byte.
func nonZeroBytes(v reflect.Value, path string) string {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			return nonZeroBytes(v.Elem(), path)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if p := nonZeroBytes(v.Field(i), path+"."+v.Type().Field(i).Name); p != "" {
				return p
			}
		}
	case reflect.Array, reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			if e := v.Index(i); e.Kind() != reflect.Uint8 {
				if p := nonZeroBytes(e, path); p != "" {
					return p
				}
			} else if e.Uint() != 0 {
				return path
			}
		}
	}
	return ""
}

// After Zeroize no key, salt, IV or keystream byte is reachable from
// either SA, on every suite. At the parent the CTR SAs kept the last
// keystream block and the derived IV. (The transforms' own scratch, which
// the SA drops with the transform, is checked in keymat.)
func TestZeroizeLeavesNoSecretBytes(t *testing.T) {
	for _, s := range suites {
		pi, pr := pairFor(t, s)
		for i := 0; i < 3; i++ {
			pkt, err := pi.Out.Seal(bytes.Repeat([]byte{0x77}, 100))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := pr.In.Open(pkt); err != nil {
				t.Fatal(err)
			}
		}
		pi.Out.Zeroize()
		pr.In.Zeroize()
		pi.Out.Zeroize() // idempotent
		for name, v := range map[string]any{"OutboundSA": pi.Out, "InboundSA": pr.In} {
			if p := nonZeroBytes(reflect.ValueOf(v), name); p != "" {
				t.Errorf("%v: %s still holds non-zero bytes after Zeroize", s, p)
			}
		}
	}
}
