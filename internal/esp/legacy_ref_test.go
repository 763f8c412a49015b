package esp

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"testing"

	"hipcloud/internal/keymat"
)

// refSizes straddle the AES block edges once the 2-byte trailer is
// counted (14 fills a block exactly, 15 spills by one) plus an MTU-sized
// payload.
var refSizes = []int{0, 1, 13, 14, 15, 16, 17, 30, 1400}

// refLegacyPacket rebuilds one 2012-suite ESP packet from stdlib parts
// only: hdr(SPI‖seq) ‖ explicit IV ‖ ciphertext ‖ HMAC-SHA-256-128 over
// everything before it, with IV = AES_k(hdr ‖ 0⁸) — 8 bytes of it on the
// wire for CTR, all 16 for CBC, none for NULL — and RFC 4303 monotonic
// padding to the cipher block.
func refLegacyPacket(t *testing.T, s keymat.Suite, spi, seq uint32, encKey, authKey, payload []byte) []byte {
	t.Helper()
	pkt := binary.BigEndian.AppendUint32(nil, spi)
	pkt = binary.BigEndian.AppendUint32(pkt, seq)
	trailer := func(padLen int) []byte {
		pt := append([]byte(nil), payload...)
		for i := 1; i <= padLen; i++ {
			pt = append(pt, byte(i))
		}
		return append(pt, byte(padLen), nextHeader)
	}
	if s == keymat.SuiteNullSHA256 {
		pkt = append(pkt, trailer(0)...)
	} else {
		block, err := aes.NewCipher(encKey)
		if err != nil {
			t.Fatal(err)
		}
		iv := make([]byte, aes.BlockSize)
		copy(iv, pkt[:HeaderLen])
		block.Encrypt(iv, iv)
		switch s {
		case keymat.SuiteAESCTRSHA256:
			pt := trailer(0)
			cipher.NewCTR(block, iv).XORKeyStream(pt, pt)
			pkt = append(append(pkt, iv[:8]...), pt...)
		case keymat.SuiteAESCBCSHA256:
			pt := trailer((aes.BlockSize - (len(payload)+2)%aes.BlockSize) % aes.BlockSize)
			cipher.NewCBCEncrypter(block, iv).CryptBlocks(pt, pt)
			pkt = append(append(pkt, iv...), pt...)
		default:
			t.Fatalf("refLegacyPacket: %v is not a 2012 suite", s)
		}
	}
	h := hmac.New(sha256.New, authKey)
	h.Write(pkt)
	return append(pkt, h.Sum(nil)[:ICVLen]...)
}

// The 2012 wire format, pinned byte-for-byte against an independent
// stdlib reconstruction for every legacy suite, payload sizes on both
// sides of each block edge, and consecutive sequence numbers. This is the
// reference the keymat composites are held to: the fig2/fig3/chaos/storm
// goldens only see packet lengths and virtual timings, never bytes.
func TestLegacyWireFormatReference(t *testing.T) {
	authKey := bytes.Repeat([]byte{0x5C}, 32)
	for _, s := range []keymat.Suite{keymat.SuiteAESCTRSHA256, keymat.SuiteAESCBCSHA256, keymat.SuiteNullSHA256} {
		encLen, _ := s.EncKeyLen()
		encKey := bytes.Repeat([]byte{0x42}, encLen)
		out, err := NewOutbound(0xC0FFEE01, s, encKey, authKey)
		if err != nil {
			t.Fatal(err)
		}
		in, err := NewInbound(0xC0FFEE01, s, encKey, authKey)
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range refSizes {
			payload := make([]byte, n)
			for j := range payload {
				payload[j] = byte(j*7 + n)
			}
			got, err := out.Seal(payload)
			if err != nil {
				t.Fatal(err)
			}
			want := refLegacyPacket(t, s, 0xC0FFEE01, uint32(i+1), encKey, authKey, payload)
			if !bytes.Equal(got, want) {
				t.Fatalf("%v n=%d: wire bytes differ from the stdlib reference\n got %x\nwant %x", s, n, got, want)
			}
			// The reference packet (not our own output) must open too.
			pt, err := in.Open(want)
			if err != nil || !bytes.Equal(pt, payload) {
				t.Fatalf("%v n=%d: reference packet does not open: %v", s, n, err)
			}
		}
	}
}
