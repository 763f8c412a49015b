package esp

import (
	"bytes"
	"net/netip"
	"testing"

	"hipcloud/internal/keymat"
)

// fuzzKeys derives matched outbound/inbound association keys for a suite,
// deterministic so sealed corpus entries stay valid across runs.
func fuzzKeys(s keymat.Suite) (keymat.AssociationKeys, keymat.AssociationKeys) {
	hitI := netip.MustParseAddr("2001:10::1")
	hitR := netip.MustParseAddr("2001:10::2")
	ki := keymat.New([]byte("dh"), hitI, hitR, 1, 2)
	kr := keymat.New([]byte("dh"), hitI, hitR, 1, 2)
	ak, _ := keymat.DeriveAssociation(ki, s, true)
	bk, _ := keymat.DeriveAssociation(kr, s, false)
	return ak, bk
}

// FuzzOpen feeds arbitrary packets to the inbound SA: it must never panic
// and must never accept anything it did not seal. The corpus seeds valid
// packets for every suite plus truncations at each wire-format boundary
// (mid-header, mid-IV, mid-ciphertext, mid-ICV).
func FuzzOpen(f *testing.F) {
	ak, bk := fuzzKeys(keymat.SuiteAESCTRSHA256)
	out, _ := NewOutbound(200, ak.Suite, ak.ESPEncOut, ak.ESPAuthOut)
	good, _ := out.Seal([]byte("seed packet"))
	f.Add(good)
	f.Add([]byte{})
	// Truncations at every structural boundary of a valid CTR packet:
	// 0 | mid-SPI | after SPI | after seq | mid-IV | after IV |
	// mid-ct | before ICV | mid-ICV | full-1.
	for _, cut := range []int{
		0, 2, 4, HeaderLen, HeaderLen + 4, HeaderLen + 8,
		HeaderLen + 10, len(good) - ICVLen, len(good) - 8, len(good) - 1,
	} {
		f.Add(append([]byte(nil), good[:cut]...))
	}
	// Valid packets from the other suites (wrong SPI/keys here, but they
	// exercise suite-specific length arithmetic in the parser), the AEAD
	// suites included: their no-wire-IV bodies hit different boundaries.
	for _, s := range []keymat.Suite{
		keymat.SuiteAESCBCSHA256, keymat.SuiteNullSHA256,
		keymat.SuiteAESGCM128, keymat.SuiteAESGCM256, keymat.SuiteChaCha20Poly1305,
	} {
		oak, _ := fuzzKeys(s)
		o, _ := NewOutbound(200, oak.Suite, oak.ESPEncOut, oak.ESPAuthOut)
		p, _ := o.Seal([]byte("other suite"))
		f.Add(p)
		f.Add(append([]byte(nil), p[:len(p)-1]...))
		// Truncation inside the tag and a tag-only body.
		f.Add(append([]byte(nil), p[:len(p)-ICVLen/2]...))
		f.Add(append([]byte(nil), p[:HeaderLen+ICVLen]...))
	}
	// Header present, degenerate bodies.
	hdr := append([]byte(nil), good[:HeaderLen]...)
	f.Add(append(append([]byte(nil), hdr...), bytes.Repeat([]byte{0}, ICVLen)...))
	f.Add(append(append([]byte(nil), hdr...), bytes.Repeat([]byte{0}, ICVLen+1)...))
	// The AEAD parser path gets its own receiver: the corpus's GCM-128
	// seeds were sealed under the same deterministic keys, so the only
	// payload it may ever accept is that seed's.
	_, abk := fuzzKeys(keymat.SuiteAESGCM128)
	f.Fuzz(func(t *testing.T, data []byte) {
		in, _ := NewInbound(200, bk.Suite, bk.ESPEncIn, bk.ESPAuthIn)
		payload, err := in.Open(data)
		if err == nil && string(payload) != "seed packet" {
			t.Fatalf("inbound SA accepted forged packet: %q", payload)
		}
		ain, _ := NewInbound(200, abk.Suite, abk.ESPEncIn, abk.ESPAuthIn)
		apayload, err := ain.Open(data)
		if err == nil && string(apayload) != "other suite" {
			t.Fatalf("AEAD inbound SA accepted forged packet: %q", apayload)
		}
	})
}

// FuzzSealOpenRoundTrip drives the append-style APIs with arbitrary
// payloads, dst prefixes and header/payload splits on every suite:
// SealHdrAppend of the payload cut at an input-chosen point, followed by
// OpenAppend, must return the exact payload, never panic, and never
// disturb bytes already in the destination buffers.
func FuzzSealOpenRoundTrip(f *testing.F) {
	f.Add([]byte(""), uint8(0), uint16(0))
	f.Add([]byte("x"), uint8(1), uint16(1))
	f.Add(bytes.Repeat([]byte{0xAB}, 15), uint8(2), uint16(7))
	f.Add(bytes.Repeat([]byte{0xCD}, 16), uint8(0), uint16(0))
	f.Add(bytes.Repeat([]byte{0xEF}, 1400), uint8(7), uint16(19))
	f.Fuzz(func(t *testing.T, payload []byte, prefixLen uint8, split uint16) {
		cut := int(split) % (len(payload) + 1)
		for _, s := range []keymat.Suite{
			keymat.SuiteAESCTRSHA256, keymat.SuiteAESCBCSHA256, keymat.SuiteNullSHA256,
			keymat.SuiteAESGCM128, keymat.SuiteAESGCM256, keymat.SuiteChaCha20Poly1305,
		} {
			ak, bk := fuzzKeys(s)
			out, err := NewOutbound(200, ak.Suite, ak.ESPEncOut, ak.ESPAuthOut)
			if err != nil {
				t.Fatal(err)
			}
			in, err := NewInbound(200, bk.Suite, bk.ESPEncIn, bk.ESPAuthIn)
			if err != nil {
				t.Fatal(err)
			}
			prefix := bytes.Repeat([]byte{0x55}, int(prefixLen))
			dst := append([]byte(nil), prefix...)
			dst, err = out.SealHdrAppend(dst, payload[:cut], payload[cut:])
			if err != nil {
				t.Fatalf("%v seal: %v", s, err)
			}
			if !bytes.Equal(dst[:len(prefix)], prefix) {
				t.Fatalf("%v: SealHdrAppend disturbed dst prefix", s)
			}
			pkt := dst[len(prefix):]
			got := append([]byte(nil), prefix...)
			got, err = in.OpenAppend(got, pkt)
			if err != nil {
				t.Fatalf("%v open: %v", s, err)
			}
			if !bytes.Equal(got[:len(prefix)], prefix) {
				t.Fatalf("%v: OpenAppend disturbed dst prefix", s)
			}
			if !bytes.Equal(got[len(prefix):], payload) {
				t.Fatalf("%v: round-trip payload mismatch (len=%d, cut at %d)", s, len(payload), cut)
			}
		}
	})
}
