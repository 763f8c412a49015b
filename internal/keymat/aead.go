package keymat

import (
	"crypto/aes"
	"crypto/cipher"
	"errors"
)

// ErrAuthFailed is returned when a tag (or a composite's explicit IV)
// does not verify.
var ErrAuthFailed = errors.New("keymat: aead authentication failed")

// ErrMalformed is returned by Open for input that authenticates but
// cannot have come from Seal (shorter than the explicit IV, CBC
// ciphertext that is not whole blocks). Only a key holder can produce it.
var ErrMalformed = errors.New("keymat: authenticated ciphertext is malformed")

// AEAD is the one seal/open primitive behind every registered suite: the
// single-pass AEADs (AES-GCM, ChaCha20-Poly1305) and the 2012
// encrypt-then-MAC composites (etm.go). It mirrors cipher.AEAD but takes
// the nonce as a fixed-size array pointer so callers can keep one nonce
// scratch in their SA state and never force a per-packet heap escape,
// and it adds Zeroize for the secret-hygiene contract (DESIGN.md §5a).
//
// Both Seal and Open append to dst. The aliasing rule is weaker than
// cipher.AEAD's because a composite may put ivLen bytes of explicit IV
// in front of the ciphertext: the plaintext handed to Seal may sit
// exactly where its ciphertext will land, at dst[len(dst)+ivLen:], and
// Open's output may land exactly on the ciphertext it came from (dst =
// sealed[ivLen:ivLen]); otherwise input and output must not overlap.
// With ivLen 0 that is cipher.AEAD's region[:0] idiom. aad must not
// overlap the output.
type AEAD interface {
	// Seal appends IV[:ivLen]||ciphertext||tag to dst and returns the
	// extended slice.
	Seal(dst []byte, nonce *[NonceLen]byte, plaintext, aad []byte) []byte
	// Open verifies the trailing tag of sealed in constant time and, only
	// on success, appends the plaintext to dst. The tag is checked before
	// any plaintext is produced.
	Open(dst []byte, nonce *[NonceLen]byte, sealed, aad []byte) ([]byte, error)
	// Zeroize wipes the key material and scratch the implementation
	// retains; the transform is unusable afterwards.
	Zeroize()
}

// NewAEAD builds the transform of any registered suite from its two
// KEYMAT slots: encKey (EncKeyLen bytes) and authKey (AuthKeyLen bytes —
// the HMAC key of a 2012 suite, checked here and then ignored for an
// AEAD suite, whose 4-byte salt the caller mixes into its nonces). ivLen
// (0..16) is how many bytes of the derived IV the CTR and CBC composites
// put on the wire; the other suites have no explicit IV. Wrong key
// lengths get the static ErrKeyLen: a key-derived value, even a length,
// must never reach a format verb.
func NewAEAD(s Suite, encKey, authKey []byte, ivLen int) (AEAD, error) {
	encLen, err := s.EncKeyLen()
	if err != nil {
		return nil, err
	}
	if authLen, _ := s.AuthKeyLen(); len(encKey) != encLen || len(authKey) != authLen {
		return nil, ErrKeyLen
	}
	switch s {
	case SuiteNullSHA256:
		return &nullHMAC{etm{mac: newMAC(authKey)}}, nil
	case SuiteChaCha20Poly1305:
		return NewChaChaPoly(encKey)
	}
	block, err := aes.NewCipher(encKey)
	if err != nil {
		return nil, err
	}
	switch s {
	case SuiteAESCTRSHA256:
		c := &ctrHMAC{etm: etm{mac: newMAC(authKey), block: block, ivLen: ivLen}}
		c.expandKey(encKey)
		return c, nil
	case SuiteAESCBCSHA256:
		return newCBCHMAC(etm{mac: newMAC(authKey), block: block, ivLen: ivLen}), nil
	}
	g, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	return &gcmAEAD{g: g}, nil
}

// gcmAEAD adapts the stdlib GCM implementation (hardware AES-NI/PMULL
// where available) to the AEAD interface.
type gcmAEAD struct {
	g cipher.AEAD
}

func (a *gcmAEAD) Seal(dst []byte, nonce *[NonceLen]byte, plaintext, aad []byte) []byte {
	return a.g.Seal(dst, nonce[:], plaintext, aad)
}

func (a *gcmAEAD) Open(dst []byte, nonce *[NonceLen]byte, ciphertext, aad []byte) ([]byte, error) {
	out, err := a.g.Open(dst, nonce[:], ciphertext, aad)
	if err != nil {
		// Collapse the stdlib sentinel so callers see one failure mode
		// across all suites.
		return nil, ErrAuthFailed
	}
	return out, nil
}

// Zeroize drops the cipher reference. The stdlib AES block keeps its
// expanded key schedule in unexported state we cannot wipe; the raw key
// bytes themselves live in AssociationKeys and are wiped by ZeroizeESP /
// Zeroize on the retire paths.
func (a *gcmAEAD) Zeroize() {
	a.g = nil
}

// Extend grows b by n bytes and returns the grown slice plus the
// appended region. It reallocates only when capacity is short, and then
// with half again as much headroom, so a buffer reused across calls stops
// growing. The append APIs of keymat, esp and tlslite share it; stdlib
// slices.Grow would cost each hot caller an extra escape and bounds check.
func Extend(b []byte, n int) (grown, region []byte) {
	total := len(b) + n
	if cap(b) >= total {
		grown = b[:total]
	} else {
		grown = make([]byte, total, total+total/2)
		copy(grown, b)
	}
	return grown, grown[len(b):]
}
