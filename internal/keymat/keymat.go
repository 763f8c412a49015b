// Package keymat implements HIP keying-material derivation (RFC 5201
// §6.5) and the cipher-suite registry shared by the HIP control plane,
// the ESP data plane and the TLS-like baseline, together with the
// transforms themselves: NewAEAD builds any registered suite — the
// single-pass AEADs and the 2012 encrypt-then-MAC composites (etm.go) —
// behind the one AEAD interface, so esp and tlslite are framing only and
// run on literally the same crypto code.
//
// KEYMAT = K1 | K2 | ... with
//
//	K1 = H(Kij | sort(HIT-I|HIT-R) | I | J | 0x01)
//	Kn = H(Kij | Kn-1 | n)
//
// where Kij is the Diffie-Hellman shared secret and I, J come from the
// puzzle. Keys are drawn in order: HIP-lsg, HIP-gls integrity keys, then
// ESP encryption/integrity keys for each direction.
package keymat

import (
	"bytes"
	"crypto/ecdh"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// Suite identifies a symmetric protection suite (ESP transform / HIP
// cipher). Values follow the RFC 5202 ESP transform registry spirit.
type Suite uint16

// Supported suites. The 2012 transforms (CBC/CTR + HMAC) keep their
// original ids; the AEAD suites extend the registry without renumbering
// anything already on the wire.
const (
	SuiteReserved     Suite = 0
	SuiteAESCBCSHA256 Suite = 2 // AES-128-CBC + HMAC-SHA-256
	SuiteNullSHA256   Suite = 3 // NULL cipher + HMAC-SHA-256 (integrity only)
	SuiteAESCTRSHA256 Suite = 4 // AES-128-CTR + HMAC-SHA-256

	// Modern single-pass AEAD suites: encryption and integrity in one
	// keyed primitive, implicit nonces derived from the replay counter
	// (no HMAC key, no separate MAC pass).
	SuiteAESGCM128        Suite = 8  // AES-128-GCM
	SuiteAESGCM256        Suite = 9  // AES-256-GCM
	SuiteChaCha20Poly1305 Suite = 10 // ChaCha20-Poly1305 (RFC 8439)
)

func (s Suite) String() string {
	switch s {
	case SuiteAESCBCSHA256:
		return "AES-CBC-SHA256"
	case SuiteNullSHA256:
		return "NULL-SHA256"
	case SuiteAESCTRSHA256:
		return "AES-CTR-SHA256"
	case SuiteAESGCM128:
		return "AES-128-GCM"
	case SuiteAESGCM256:
		return "AES-256-GCM"
	case SuiteChaCha20Poly1305:
		return "CHACHA20-POLY1305"
	}
	return fmt.Sprintf("suite(%d)", uint16(s))
}

// ErrUnknownSuite is returned for unregistered suite ids.
var ErrUnknownSuite = errors.New("keymat: unknown cipher suite")

// ErrKeyLen is returned for a key of the wrong length. It is static by
// design: key-derived values (even lengths) stay out of error strings.
var ErrKeyLen = errors.New("keymat: wrong key length")

// IsAEAD reports whether the suite is a single-pass AEAD transform
// (implicit nonce from the sequence counter, tag instead of HMAC ICV).
func (s Suite) IsAEAD() bool {
	switch s {
	case SuiteAESGCM128, SuiteAESGCM256, SuiteChaCha20Poly1305:
		return true
	}
	return false
}

// EncKeyLen returns the encryption key length for the suite.
func (s Suite) EncKeyLen() (int, error) {
	switch s {
	case SuiteAESCBCSHA256, SuiteAESCTRSHA256, SuiteAESGCM128:
		return 16, nil
	case SuiteAESGCM256, SuiteChaCha20Poly1305:
		return 32, nil
	case SuiteNullSHA256:
		return 0, nil
	}
	return 0, ErrUnknownSuite
}

// AuthKeyLen returns the integrity key length for the suite. AEAD suites
// carry no HMAC key; their 4 "auth" bytes are the implicit-IV salt
// (RFC 4106/8750 style) drawn through the same KEYMAT slot, which keeps
// DeriveAssociation and DeriveESPRekey layout-compatible across the whole
// registry — a rekey rotates the salt together with the key, so nonce
// streams never collide across key generations.
func (s Suite) AuthKeyLen() (int, error) {
	switch s {
	case SuiteAESCBCSHA256, SuiteAESCTRSHA256, SuiteNullSHA256:
		return 32, nil
	case SuiteAESGCM128, SuiteAESGCM256, SuiteChaCha20Poly1305:
		return SaltLen, nil
	}
	return 0, ErrUnknownSuite
}

// SaltLen is the implicit-IV salt length for AEAD suites: the nonce is
// salt(4) || zero(4) || seq(4), unique per (key, sequence number).
const SaltLen = 4

// NonceLen is the AEAD nonce length (AES-GCM and ChaCha20-Poly1305 both
// take 96-bit nonces).
const NonceLen = 12

// TagLen is the AEAD authentication tag length.
const TagLen = 16

// Preferred is the default preference-ordered proposal list. It is
// deliberately the 2012 paper's transform set: the simulation experiments
// negotiate through it, and their golden tables pin its order. Modern
// deployments (the real-UDP drivers, the AEAD benchmarks) offer
// PreferredAEAD instead.
var Preferred = []Suite{SuiteAESCTRSHA256, SuiteAESCBCSHA256, SuiteNullSHA256}

// PreferredAEAD is the modern preference list: single-pass AEAD suites
// first, the legacy transforms retained for interop with 2012-only peers.
var PreferredAEAD = []Suite{
	SuiteAESGCM128, SuiteChaCha20Poly1305, SuiteAESGCM256,
	SuiteAESCTRSHA256, SuiteAESCBCSHA256, SuiteNullSHA256,
}

// Negotiate picks the first of the responder's preferences present in the
// initiator's offer (responder chooses, per RFC 5201).
func Negotiate(offer, prefs []Suite) (Suite, error) {
	for _, want := range prefs {
		for _, got := range offer {
			if got == want {
				return want, nil
			}
		}
	}
	return SuiteReserved, ErrUnknownSuite
}

// Keymat is a deterministic key stream derived from the base exchange. It
// holds one block of the stream: Draw hands out its bytes from off on and
// hashes the next block into the same array once they run out.
type Keymat struct {
	kij   []byte
	hits  [32]byte // sorted concatenation of the two HITs
	ij    [16]byte
	block [sha256.Size]byte // Kn
	n     uint8             // index n of block; 0 before the first
	off   int               // bytes of block already drawn
	drawn int
}

// New creates the key stream for the association. dhSecret is Kij; i and j
// come from the puzzle exchange.
func New(dhSecret []byte, hitI, hitR netip.Addr, i, j uint64) *Keymat {
	a, b := hitI.As16(), hitR.As16()
	// The key stream owns its copy of Kij (callers wipe theirs right
	// after New), and the HIT concatenation is an inline array.
	k := &Keymat{kij: Clone(dhSecret), off: sha256.Size}
	if bytes.Compare(a[:], b[:]) < 0 {
		copy(k.hits[:16], a[:])
		copy(k.hits[16:], b[:])
	} else {
		copy(k.hits[:16], b[:])
		copy(k.hits[16:], a[:])
	}
	binary.BigEndian.PutUint64(k.ij[0:], i)
	binary.BigEndian.PutUint64(k.ij[8:], j)
	return k
}

// extend replaces block with the next one: K1 from the HITs and I|J, every
// later Kn from its predecessor.
func (k *Keymat) extend() {
	h := sha256.New()
	h.Write(k.kij)
	if k.n == 0 {
		h.Write(k.hits[:])
		h.Write(k.ij[:])
	} else {
		h.Write(k.block[:])
	}
	k.n++
	h.Write([]byte{k.n})
	h.Sum(k.block[:0])
	k.off = 0
}

// Draw returns the next n bytes of keying material.
func (k *Keymat) Draw(n int) []byte {
	out := make([]byte, n)
	for rest := out; len(rest) > 0; {
		if k.off == len(k.block) {
			k.extend()
		}
		c := copy(rest, k.block[k.off:])
		k.off += c
		rest = rest[c:]
	}
	k.drawn += n
	if ledger != nil {
		ledger.add(out)
	}
	return out
}

// Drawn reports total bytes drawn (the KEYMAT index).
func (k *Keymat) Drawn() int { return k.drawn }

// SharedSecret computes the ECDH shared secret between priv and the peer's
// encoded public key on priv's curve: Kij for New, or a TLS-style
// premaster secret. The caller owns the result and must Zeroize it once
// the KDF has consumed it.
func SharedSecret(priv *ecdh.PrivateKey, peerPub []byte) ([]byte, error) {
	pub, err := priv.Curve().NewPublicKey(peerPub)
	if err != nil {
		return nil, err
	}
	secret, err := priv.ECDH(pub)
	if err != nil {
		return nil, err
	}
	if ledger != nil {
		ledger.add(secret)
	}
	return secret, nil
}

// Clone returns a copy of key for a store that keeps it past the call
// that produced it. The store owns the copy and must Zeroize it when it
// drops the entry.
func Clone(key []byte) []byte {
	c := make([]byte, len(key))
	copy(c, key)
	if ledger != nil {
		ledger.add(c)
	}
	return c
}

// Zeroize overwrites b with zeros. Retired key material — an ECDH shared
// secret the KDF has consumed, keys displaced by a rekey, evicted
// session secrets — must be wiped before the last reference is dropped,
// or the plaintext lingers on the heap for as long as the allocator
// pleases. Test binaries referee this: a key buffer from Draw, New,
// SharedSecret or Clone counts as wiped only once Zeroize has cleared it
// whole (KeysOutstanding).
func Zeroize(b []byte) {
	clear(b)
	if ledger != nil {
		ledger.wiped(b)
	}
}

// Zeroize wipes the key stream's secret state: Kij, I|J and the current
// block, which is all the stream ever held. The Keymat must not be used
// afterwards; an association drops its stream only at teardown.
func (k *Keymat) Zeroize() {
	Zeroize(k.kij)
	k.ij = [16]byte{}
	k.block = [sha256.Size]byte{}
}

// ZeroizeESP wipes the four directional ESP keys, leaving the HIP
// control-plane keys intact: a rekey replaces only the data-plane keys
// and carries the control keys into the successor key set.
func (a *AssociationKeys) ZeroizeESP() {
	Zeroize(a.ESPEncOut)
	Zeroize(a.ESPAuthOut)
	Zeroize(a.ESPEncIn)
	Zeroize(a.ESPAuthIn)
}

// Zeroize wipes the full key set, control-plane keys included; for
// association teardown, where nothing is carried forward.
func (a *AssociationKeys) Zeroize() {
	a.ZeroizeESP()
	Zeroize(a.HIPEncOut)
	Zeroize(a.HIPEncIn)
	Zeroize(a.HIPMacOut)
	Zeroize(a.HIPMacIn)
}

// AssociationKeys is the full key set for one HIP association.
type AssociationKeys struct {
	Suite Suite
	// HIP control-plane encryption keys (ENCRYPTED parameter), one per
	// direction; drawn first, as in RFC 5201's KEYMAT order.
	HIPEncOut, HIPEncIn []byte
	// HIP control-plane integrity keys, one per direction.
	HIPMacOut, HIPMacIn []byte
	// ESP keys, one pair per direction.
	ESPEncOut, ESPAuthOut []byte
	ESPEncIn, ESPAuthIn   []byte
}

// DeriveAssociation draws the standard key layout. The initiator draws
// out-keys first; the responder mirrors by passing initiator=false so both
// sides agree on directionality (RFC 5201 draws HIP-I→R first).
func DeriveAssociation(k *Keymat, s Suite, initiator bool) (AssociationKeys, error) {
	encLen, err := s.EncKeyLen()
	if err != nil {
		return AssociationKeys{}, err
	}
	authLen, err := s.AuthKeyLen()
	if err != nil {
		return AssociationKeys{}, err
	}
	// Draw order (RFC 5201 §6.5): HIP I→R enc, HIP I→R mac, HIP R→I enc,
	// HIP R→I mac, then ESP I→R enc/auth, ESP R→I enc/auth.
	hipEncIR := k.Draw(16)
	macIR := k.Draw(32)
	hipEncRI := k.Draw(16)
	macRI := k.Draw(32)
	encIR := k.Draw(encLen)
	authIR := k.Draw(authLen)
	encRI := k.Draw(encLen)
	authRI := k.Draw(authLen)
	out := AssociationKeys{Suite: s}
	if initiator {
		out.HIPEncOut, out.HIPEncIn = hipEncIR, hipEncRI
		out.HIPMacOut, out.HIPMacIn = macIR, macRI
		out.ESPEncOut, out.ESPAuthOut = encIR, authIR
		out.ESPEncIn, out.ESPAuthIn = encRI, authRI
	} else {
		out.HIPEncOut, out.HIPEncIn = hipEncRI, hipEncIR
		out.HIPMacOut, out.HIPMacIn = macRI, macIR
		out.ESPEncOut, out.ESPAuthOut = encRI, authRI
		out.ESPEncIn, out.ESPAuthIn = encIR, authIR
	}
	return out, nil
}

// DeriveESPRekey draws a fresh set of ESP keys (leaving the HIP integrity
// keys untouched) for an RFC 5202 rekey. Both peers must call it at the
// same KEYMAT index; the initiator flag refers to the original base
// exchange roles so the directional assignment matches.
func DeriveESPRekey(k *Keymat, s Suite, initiator bool) (AssociationKeys, error) {
	encLen, err := s.EncKeyLen()
	if err != nil {
		return AssociationKeys{}, err
	}
	authLen, err := s.AuthKeyLen()
	if err != nil {
		return AssociationKeys{}, err
	}
	encIR := k.Draw(encLen)
	authIR := k.Draw(authLen)
	encRI := k.Draw(encLen)
	authRI := k.Draw(authLen)
	out := AssociationKeys{Suite: s}
	if initiator {
		out.ESPEncOut, out.ESPAuthOut = encIR, authIR
		out.ESPEncIn, out.ESPAuthIn = encRI, authRI
	} else {
		out.ESPEncOut, out.ESPAuthOut = encRI, authRI
		out.ESPEncIn, out.ESPAuthIn = encIR, authIR
	}
	return out, nil
}
