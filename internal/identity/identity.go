// Package identity implements HIP Host Identities: public-key identities
// (RSA, ECDSA P-256, Ed25519), Host Identity Tags (HITs — 128-bit
// ORCHID-style hashes with the dedicated IPv6 prefix, RFC 4843/5201) and
// Local-Scope Identifiers (LSIs — per-host IPv4 aliases from 1.0.0.0/8,
// RFC 5338).
package identity

import (
	"crypto"
	"crypto/ecdsa"
	"crypto/ed25519"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha1"
	"crypto/sha256"
	"crypto/x509"
	"errors"
	"fmt"
	"net/netip"
	"sync"
)

// Algorithm identifies the Host Identity key algorithm (RFC 5201 registry
// values where they exist).
type Algorithm uint8

// Supported HI algorithms.
const (
	AlgDSA     Algorithm = 3 // registry value; unsupported here
	AlgRSA     Algorithm = 5
	AlgECDSA   Algorithm = 7 // RFC 7401 ECDSA
	AlgEd25519 Algorithm = 13
)

func (a Algorithm) String() string {
	switch a {
	case AlgRSA:
		return "RSA"
	case AlgECDSA:
		return "ECDSA-P256"
	case AlgEd25519:
		return "Ed25519"
	case AlgDSA:
		return "DSA"
	}
	return fmt.Sprintf("alg(%d)", uint8(a))
}

// HITPrefix is the ORCHID prefix reserved for HITs (2001:10::/28).
var HITPrefix = netip.MustParsePrefix("2001:10::/28")

// LSIPrefix is the local-scope identifier prefix (1.0.0.0/8).
var LSIPrefix = netip.MustParsePrefix("1.0.0.0/8")

// Errors returned by this package.
var (
	ErrBadAlgorithm = errors.New("identity: unsupported algorithm")
	ErrBadSignature = errors.New("identity: signature verification failed")
	ErrNotHIT       = errors.New("identity: address is not a HIT")
)

// HostIdentity is a private-public HIP identity.
type HostIdentity struct {
	alg  Algorithm
	priv crypto.Signer
	pub  PublicID
}

// PublicID is the public half of a Host Identity: enough to verify
// signatures and derive the HIT.
type PublicID struct {
	Alg Algorithm
	// DER is the PKIX-marshaled public key (the canonical HI wire form
	// used in HOST_ID parameters and for HIT derivation).
	DER []byte
	key crypto.PublicKey
	hit netip.Addr
}

// Generate creates a fresh Host Identity. RSA uses 2048-bit keys.
func Generate(alg Algorithm) (*HostIdentity, error) {
	switch alg {
	case AlgRSA:
		k, err := rsa.GenerateKey(rand.Reader, 2048)
		if err != nil {
			return nil, err
		}
		return fromSigner(alg, k)
	case AlgECDSA:
		k, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
		if err != nil {
			return nil, err
		}
		return fromSigner(alg, k)
	case AlgEd25519:
		_, k, err := ed25519.GenerateKey(rand.Reader)
		if err != nil {
			return nil, err
		}
		return fromSigner(alg, k)
	}
	return nil, ErrBadAlgorithm
}

// MustGenerate is Generate that panics on error (setup/test convenience).
func MustGenerate(alg Algorithm) *HostIdentity {
	hi, err := Generate(alg)
	if err != nil {
		panic(err)
	}
	return hi
}

func fromSigner(alg Algorithm, s crypto.Signer) (*HostIdentity, error) {
	pub, err := NewPublicID(alg, s.Public())
	if err != nil {
		return nil, err
	}
	return &HostIdentity{alg: alg, priv: s, pub: *pub}, nil
}

// NewPublicID wraps a parsed public key.
func NewPublicID(alg Algorithm, key crypto.PublicKey) (*PublicID, error) {
	der, err := x509.MarshalPKIXPublicKey(key)
	if err != nil {
		return nil, err
	}
	p := &PublicID{Alg: alg, DER: der, key: key}
	p.hit = deriveHIT(der)
	return p, nil
}

// ParsePublicID parses the wire form (algorithm + PKIX DER) of an HI.
func ParsePublicID(alg Algorithm, der []byte) (*PublicID, error) {
	key, err := x509.ParsePKIXPublicKey(der)
	if err != nil {
		return nil, fmt.Errorf("identity: parsing HI: %w", err)
	}
	switch alg {
	case AlgRSA:
		if _, ok := key.(*rsa.PublicKey); !ok {
			return nil, ErrBadAlgorithm
		}
	case AlgECDSA:
		if _, ok := key.(*ecdsa.PublicKey); !ok {
			return nil, ErrBadAlgorithm
		}
	case AlgEd25519:
		if _, ok := key.(ed25519.PublicKey); !ok {
			return nil, ErrBadAlgorithm
		}
	default:
		return nil, ErrBadAlgorithm
	}
	// The identity outlives the packet that carried the key, and parsed
	// parameter bodies alias the packet's arena — so the DER copy is
	// deliberate (exact-size): aliasing would pin the whole arena for the
	// identity's lifetime.
	derCopy := make([]byte, len(der))
	copy(derCopy, der)
	p := &PublicID{Alg: alg, DER: derCopy, key: key}
	p.hit = deriveHIT(der)
	return p, nil
}

// deriveHIT computes the ORCHID-style HIT: the 28-bit prefix 2001:10::/28
// followed by the top 100 bits of SHA-256 over the canonical HI encoding.
func deriveHIT(der []byte) netip.Addr {
	sum := sha256.Sum256(der)
	var a [16]byte
	// Prefix 2001:0010::/28 -> first 28 bits fixed.
	a[0], a[1], a[2] = 0x20, 0x01, 0x00
	// Remaining 4 bits of a[3] plus 12 more bytes and change come from hash.
	// Take 100 bits of digest: fill a[3]&0x0f then a[4..15].
	a[3] = 0x10 | (sum[0] >> 4)
	for i := 0; i < 12; i++ {
		a[4+i] = sum[i]<<4 | sum[i+1]>>4
	}
	return netip.AddrFrom16(a)
}

// Public returns the public half.
func (h *HostIdentity) Public() PublicID { return h.pub }

// Algorithm returns the key algorithm.
func (h *HostIdentity) Algorithm() Algorithm { return h.alg }

// HIT returns the Host Identity Tag.
func (h *HostIdentity) HIT() netip.Addr { return h.pub.hit }

// HIT returns the Host Identity Tag for the public identity.
func (p *PublicID) HIT() netip.Addr { return p.hit }

// Key returns the parsed public key.
func (p *PublicID) Key() crypto.PublicKey { return p.key }

// Sign signs msg with the private key. RSA uses PKCS#1v1.5/SHA-256, ECDSA
// uses ASN.1/SHA-256, Ed25519 signs the message directly.
func (h *HostIdentity) Sign(msg []byte) ([]byte, error) {
	switch h.alg {
	case AlgRSA, AlgECDSA:
		sum := sha256.Sum256(msg)
		return h.priv.Sign(rand.Reader, sum[:], crypto.SHA256)
	case AlgEd25519:
		return h.priv.Sign(rand.Reader, msg, crypto.Hash(0))
	}
	return nil, ErrBadAlgorithm
}

// Verify checks sig over msg against the public identity.
func (p *PublicID) Verify(msg, sig []byte) error {
	switch p.Alg {
	case AlgRSA:
		sum := sha256.Sum256(msg)
		if err := rsa.VerifyPKCS1v15(p.key.(*rsa.PublicKey), crypto.SHA256, sum[:], sig); err != nil {
			return ErrBadSignature
		}
		return nil
	case AlgECDSA:
		sum := sha256.Sum256(msg)
		if !ecdsa.VerifyASN1(p.key.(*ecdsa.PublicKey), sum[:], sig) {
			return ErrBadSignature
		}
		return nil
	case AlgEd25519:
		if !ed25519.Verify(p.key.(ed25519.PublicKey), msg, sig) {
			return ErrBadSignature
		}
		return nil
	}
	return ErrBadAlgorithm
}

// IsHIT reports whether a is inside the ORCHID HIT prefix.
func IsHIT(a netip.Addr) bool { return a.Is6() && HITPrefix.Contains(a) }

// IsLSI reports whether a is a local-scope identifier.
func IsLSI(a netip.Addr) bool { return a.Is4() && LSIPrefix.Contains(a) }

// LSIFromHIT derives a deterministic default LSI for a HIT: 1.x.y.z from
// the low bytes of the HIT (SHA-1 folded for spread). Hosts may override
// via LSIAllocator when collisions occur.
func LSIFromHIT(hit netip.Addr) (netip.Addr, error) {
	if !IsHIT(hit) {
		return netip.Addr{}, ErrNotHIT
	}
	b := hit.As16()
	sum := sha1.Sum(b[:])
	return netip.AddrFrom4([4]byte{1, sum[0], sum[1], sum[2]}), nil
}

// LSIAllocator hands out unique LSIs per HIT on one host.
type LSIAllocator struct {
	mu    sync.Mutex
	byHIT map[netip.Addr]netip.Addr
	byLSI map[netip.Addr]netip.Addr
	next  uint32
}

// NewLSIAllocator creates an empty allocator.
func NewLSIAllocator() *LSIAllocator {
	return &LSIAllocator{
		byHIT: make(map[netip.Addr]netip.Addr),
		byLSI: make(map[netip.Addr]netip.Addr),
		next:  1,
	}
}

// Assign returns the LSI for hit, allocating one if needed. The default
// derivation is used unless it collides with an existing assignment.
func (a *LSIAllocator) Assign(hit netip.Addr) (netip.Addr, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if lsi, ok := a.byHIT[hit]; ok {
		return lsi, nil
	}
	lsi, err := LSIFromHIT(hit)
	if err != nil {
		return netip.Addr{}, err
	}
	for {
		if _, taken := a.byLSI[lsi]; !taken {
			break
		}
		a.next++
		lsi = netip.AddrFrom4([4]byte{1, byte(a.next >> 16), byte(a.next >> 8), byte(a.next)})
	}
	a.byHIT[hit] = lsi
	a.byLSI[lsi] = hit
	return lsi, nil
}

// Lookup resolves an LSI back to its HIT.
func (a *LSIAllocator) Lookup(lsi netip.Addr) (netip.Addr, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	hit, ok := a.byLSI[lsi]
	return hit, ok
}
