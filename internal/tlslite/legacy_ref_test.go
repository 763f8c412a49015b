package tlslite

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"testing"
)

// The legacy record format, pinned byte-for-byte against an independent
// stdlib reconstruction: AES-128-CTR ciphertext under IV =
// AES_k(seq64 ‖ 0⁸) — never sent — followed by HMAC-SHA-256-128 over
// seq64 ‖ ciphertext. Sizes straddle the AES block edges; the sequence
// number advances per record. Together with esp's
// TestLegacyWireFormatReference this is the reference the keymat
// composites are held to.
func TestLegacyRecordFormatReference(t *testing.T) {
	a, b := connPair(t)
	// connPair's client-direction keys (a is the client).
	encKey := bytes.Repeat([]byte{0x31}, 16)
	authKey := bytes.Repeat([]byte{0x11}, 32)
	block, err := aes.NewCipher(encKey)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range []int{0, 1, 13, 14, 15, 16, 17, 30, 1400} {
		plain := make([]byte, n)
		for j := range plain {
			plain[j] = byte(j*5 + n)
		}
		var seq [8]byte
		binary.BigEndian.PutUint64(seq[:], uint64(i+1))
		iv := make([]byte, aes.BlockSize)
		copy(iv, seq[:])
		block.Encrypt(iv, iv)
		want := make([]byte, n)
		cipher.NewCTR(block, iv).XORKeyStream(want, plain)
		h := hmac.New(sha256.New, authKey)
		h.Write(seq[:])
		h.Write(want)
		want = append(want, h.Sum(nil)[:macLen]...)

		got := a.sealRecordAppend(nil, plain)
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d: record bytes differ from the stdlib reference\n got %x\nwant %x", n, got, want)
		}
		// The reference record (not our own output) must open too.
		pt, err := b.openRecordInPlace(want)
		if err != nil || !bytes.Equal(pt, plain) {
			t.Fatalf("n=%d: reference record does not open: %v", n, err)
		}
	}
}
