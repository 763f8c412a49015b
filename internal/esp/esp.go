// Package esp implements a userspace IPsec ESP data plane in BEET mode
// (Bound End-to-End Tunnel, RFC 5202/5840-style): the inner identities of
// a packet are fixed at SA setup (the two HITs), so only SPI, sequence
// number, payload, padding and ICV travel on the wire — the
// bandwidth-efficiency property the paper highlights over tunnel mode.
//
// Every transform is a keymat.AEAD built by keymat.NewAEAD: the modern
// single-pass suites (AES-128/256-GCM, ChaCha20-Poly1305) and the 2012
// suites (AES-128-CTR, AES-128-CBC and NULL with HMAC-SHA-256-128) as
// encrypt-then-MAC composites. This package is framing only: the header,
// the RFC 4303 pad/trailer, the replay window and the counters; it knows
// two facts per suite (see shape) and seals or opens with one call. The
// 8-byte ESP header is the AAD and the 16-byte tag fills the ICV slot on
// every suite. AEAD packets carry no wire IV: the nonce is implicit —
// salt(4) || 0(4) || seq(4), RFC 8750 style — with the salt drawn from
// KEYMAT per key generation; the composites derive their IV from the
// header and ignore the nonce. Combined with the sequence-exhaustion
// refusal in SealAppend, a (key, nonce) pair can never repeat.
//
// # Zero-allocation fast path
//
// SealAppend and OpenAppend are the steady-state APIs: they append the
// sealed packet (or recovered payload) to a caller-provided buffer and
// return the extended slice, exactly like cipher.AEAD. With a reused
// destination buffer they perform zero heap allocations per packet: the
// transforms key their state once at SA setup and own their scratch, and
// the plaintext is framed where its ciphertext lands and sealed in
// place. SealHdrAppend frames it there from two pieces, an inner header
// and a payload, so no caller joins them first; SealAppend is it with no
// header. Seal and Open remain as thin allocating wrappers for callers
// that want a fresh buffer.
//
// Buffer ownership: SealAppend/OpenAppend never alias SA-internal state
// in their output — the returned bytes live entirely in dst's (possibly
// grown) backing array and remain valid after the next call. The inverse
// does not hold: an SA is single-owner scratch, so concurrent calls on
// one SA are not safe (they never were; the sequence number and replay
// window already serialize it).
package esp

import (
	"encoding/binary"
	"errors"

	"hipcloud/internal/keymat"
)

// Errors returned by the data plane.
var (
	ErrAuth         = errors.New("esp: integrity check failed")
	ErrReplay       = errors.New("esp: replayed or stale sequence number")
	ErrShort        = errors.New("esp: truncated packet")
	ErrPad          = errors.New("esp: invalid padding")
	ErrUnknownSPI   = errors.New("esp: unknown SPI")
	ErrSeqExhausted = errors.New("esp: outbound sequence space exhausted")
)

// ICVLen is the integrity tag length: the truncated HMAC-SHA-256-128 and
// the AEAD tags coincide (the compile-time check pins it both ways).
const ICVLen = 16
const _ = uint(ICVLen-keymat.TagLen) + uint(keymat.TagLen-ICVLen)

// HeaderLen is SPI + sequence number.
const HeaderLen = 8

// ReplayWindow is the anti-replay window width in packets.
const ReplayWindow = 64

// MaxOverhead is the worst-case size increase of Seal over the payload
// across all suites: header, CBC IV block, trailer plus block round-up,
// and the ICV. Callers use it to pre-size SealAppend destinations when
// the negotiated suite is not at hand.
const MaxOverhead = HeaderLen + 16 + 17 + ICVLen

// nextHeader is the ESP trailer next-header value (59 = IPv6 no-next-header,
// the BEET-mode convention used throughout).
const nextHeader = 59

// shape reports the two per-suite facts the framing needs: how many IV
// bytes travel in front of the ciphertext, and the block size (a power
// of two) the plaintext payload||pad||padlen||nexthdr is padded to. The
// NULL and AEAD suites send no IV and need no padding.
func shape(s keymat.Suite) (ivLen, padBlock int) {
	switch s {
	case keymat.SuiteAESCTRSHA256:
		return 8, 1
	case keymat.SuiteAESCBCSHA256:
		return 16, 16
	}
	return 0, 1
}

// half is what both directions of an SA share: the SPI, the transform
// with its implicit-IV nonce scratch — salt(4) || zero(4) || seq(4), the
// seq field rewritten per packet; it lives in the (heap-resident) SA so
// the nonce pointer crosses the AEAD interface without a per-packet
// escape — the suite's shape, and the encryption key, which aliases the
// AssociationKeys slice it was built from and is kept only to be wiped.
type half struct {
	SPI             uint32
	encKey          []byte
	tf              keymat.AEAD
	nonce           [keymat.NonceLen]byte
	ivLen, padBlock int
}

// OutboundSA encrypts and authenticates packets for one direction.
type OutboundSA struct {
	half
	seq     uint32
	Packets uint64
	Bytes   uint64
}

// InboundSA authenticates, replay-checks and decrypts one direction.
type InboundSA struct {
	half
	// Anti-replay state: highest sequence seen and a bitmap of the
	// ReplayWindow sequences at and below it.
	highest   uint32
	window    uint64
	Packets   uint64
	Bytes     uint64
	Replays   uint64
	AuthFails uint64
}

// newHalf builds the shared half of an SA. For the 2012 suites authKey is
// the 32-byte HMAC key; for AEAD suites it is the 4-byte implicit-IV salt
// drawn through the same KEYMAT slot.
func newHalf(spi uint32, suite keymat.Suite, encKey, authKey []byte) (half, error) {
	h := half{SPI: spi, encKey: encKey}
	h.ivLen, h.padBlock = shape(suite)
	tf, err := keymat.NewAEAD(suite, encKey, authKey, h.ivLen)
	if err != nil {
		return half{}, err
	}
	h.tf = tf
	if suite.IsAEAD() {
		copy(h.nonce[:keymat.SaltLen], authKey)
	}
	return h, nil
}

// NewOutbound creates the sending half of an SA; keys of the wrong length
// for the suite are refused with keymat.ErrKeyLen.
func NewOutbound(spi uint32, suite keymat.Suite, encKey, authKey []byte) (*OutboundSA, error) {
	h, err := newHalf(spi, suite, encKey, authKey)
	if err != nil {
		return nil, err
	}
	return &OutboundSA{half: h}, nil
}

// NewInbound creates the receiving half of an SA; see NewOutbound.
func NewInbound(spi uint32, suite keymat.Suite, encKey, authKey []byte) (*InboundSA, error) {
	h, err := newHalf(spi, suite, encKey, authKey)
	if err != nil {
		return nil, err
	}
	return &InboundSA{half: h}, nil
}

// Zeroize wipes the SA's key material: the encryption key, the
// transform's keyed state and scratch, and the nonce salt. Idempotent;
// the SA must not be used afterwards — it is retired by a rekey or
// teardown.
func (h *half) Zeroize() {
	keymat.Zeroize(h.encKey)
	if h.tf != nil {
		h.tf.Zeroize()
		h.tf = nil
	}
	h.nonce = [keymat.NonceLen]byte{}
}

// Seq returns the last sequence number sent.
func (sa *OutboundSA) Seq() uint32 { return sa.seq }

// SetSeq fast-forwards the outbound sequence counter. It exists so tests
// can place an SA near the 2^32−1 saturation point without sealing four
// billion packets; production code never rewinds or skips sequence
// numbers.
func (sa *OutboundSA) SetSeq(seq uint32) { sa.seq = seq }

// padLen is the RFC 4303 padding that rounds an n-byte payload plus the
// 2-byte trailer up to the suite's block size.
func (h *half) padLen(n int) int { return -(n + 2) & (h.padBlock - 1) }

// SealedLen reports the total packet length SealAppend will produce for a
// payload of length n, for callers pre-sizing destination buffers.
func (sa *OutboundSA) SealedLen(n int) int {
	return HeaderLen + sa.ivLen + n + sa.padLen(n) + 2 + ICVLen
}

// Overhead reports the per-packet ESP byte overhead for a suite (header,
// IV, trailer with worst-case padding, ICV), used by cost models and
// wire-size accounting.
func Overhead(s keymat.Suite) int {
	ivLen, padBlock := shape(s)
	return HeaderLen + ivLen + padBlock - 1 + 2 + ICVLen
}

// SealAppend encrypts and authenticates payload, appending the full ESP
// packet to dst and returning the extended slice. With a dst whose
// capacity already fits the packet it allocates nothing. payload and dst
// must not overlap.
func (sa *OutboundSA) SealAppend(dst, payload []byte) ([]byte, error) {
	return sa.SealHdrAppend(dst, nil, payload)
}

// SealHdrAppend is SealAppend of the payload hdr||payload, framed straight
// from its two pieces: a driver seals its inner header and a lent payload
// view without first joining them in a scratch. Neither hdr nor payload
// may overlap dst.
func (sa *OutboundSA) SealHdrAppend(dst, hdr, payload []byte) ([]byte, error) {
	// The saturation refusal is what makes implicit-IV AEAD safe even if
	// a rekey stalls: the final sequence number 2^32-1 is used at most
	// once and the counter never wraps, so a (key, nonce) pair can never
	// repeat within one SA (see hip.rekeyThreshold for the headroom that
	// normally rekeys long before this hard stop).
	if sa.seq == ^uint32(0) {
		return nil, ErrSeqExhausted
	}
	sa.seq++
	size := len(hdr) + len(payload)
	pad := sa.padLen(size)
	dst, pkt := keymat.Extend(dst, sa.SealedLen(size))
	binary.BigEndian.PutUint32(pkt[0:], sa.SPI)
	binary.BigEndian.PutUint32(pkt[4:], sa.seq)
	binary.BigEndian.PutUint32(sa.nonce[8:], sa.seq)
	// Frame the plaintext where its ciphertext will land — behind the
	// explicit IV the transform writes — and seal it in place: ciphertext
	// overwrites it and the tag fills the ICV slot.
	pt := pkt[HeaderLen+sa.ivLen : len(pkt)-ICVLen]
	n := copy(pt, hdr)
	n += copy(pt[n:], payload)
	for i := 0; i < pad; i++ {
		pt[n+i] = byte(i + 1) // RFC 4303 monotonic padding
	}
	pt[len(pt)-2] = byte(pad)
	pt[len(pt)-1] = nextHeader
	sa.tf.Seal(pkt[HeaderLen:HeaderLen], &sa.nonce, pt, pkt[:HeaderLen])
	sa.Packets++
	sa.Bytes += uint64(size)
	return dst, nil
}

// Seal encrypts and authenticates payload, producing a full ESP packet in
// a freshly allocated buffer. It is a thin wrapper over SealAppend.
func (sa *OutboundSA) Seal(payload []byte) ([]byte, error) {
	return sa.SealAppend(nil, payload)
}

// OpenAppend verifies, replay-checks and decrypts an ESP packet,
// appending the recovered payload to dst and returning the extended
// slice. With a dst whose capacity already fits the packet body it
// allocates nothing. pkt and dst must not overlap; pkt is not modified.
// On failure dst is lost (nil is returned) and the replay window is
// untouched.
func (sa *InboundSA) OpenAppend(dst, pkt []byte) ([]byte, error) {
	if len(pkt) < HeaderLen+ICVLen {
		return nil, ErrShort
	}
	spi := binary.BigEndian.Uint32(pkt[0:])
	if spi != sa.SPI {
		return nil, ErrUnknownSPI
	}
	seq := binary.BigEndian.Uint32(pkt[4:])
	if !sa.replayCheck(seq) {
		sa.Replays++
		return nil, ErrReplay
	}
	// The tag covers header (as AAD) and body and is checked before any
	// plaintext is accepted.
	binary.BigEndian.PutUint32(sa.nonce[8:], seq)
	dst, region := keymat.Extend(dst, len(pkt)-HeaderLen-ICVLen)
	pt, err := sa.tf.Open(region[:0], &sa.nonce, pkt[HeaderLen:], pkt[:HeaderLen])
	if err == keymat.ErrAuthFailed {
		sa.AuthFails++
		return nil, ErrAuth
	}
	// Past this point the packet authenticated, so only a key holder can
	// reach the remaining rejections.
	if err != nil || len(pt) < 2 {
		return nil, ErrShort
	}
	pad := int(pt[len(pt)-2])
	n := len(pt) - 2 - pad
	if n < 0 {
		return nil, ErrPad
	}
	// Verify RFC 4303 monotonic padding bytes.
	for i := 0; i < pad; i++ {
		if pt[n+i] != byte(i+1) {
			return nil, ErrPad
		}
	}
	// Shrink the appended region to the payload (drop IV slack, pad and
	// trailer).
	dst = dst[:len(dst)-len(region)+n]
	sa.replayAdvance(seq)
	sa.Packets++
	sa.Bytes += uint64(n)
	return dst, nil
}

// Open verifies, replay-checks and decrypts an ESP packet, returning the
// payload in a freshly allocated buffer. It is a thin wrapper over
// OpenAppend.
func (sa *InboundSA) Open(pkt []byte) ([]byte, error) {
	return sa.OpenAppend(nil, pkt)
}

// replayCheck reports whether seq is acceptable (not seen, not too old).
func (sa *InboundSA) replayCheck(seq uint32) bool {
	if seq == 0 {
		return false
	}
	if seq > sa.highest {
		return true
	}
	diff := sa.highest - seq
	if diff >= ReplayWindow {
		return false
	}
	return sa.window&(1<<diff) == 0
}

// replayAdvance marks seq as seen after successful authentication.
func (sa *InboundSA) replayAdvance(seq uint32) {
	if seq > sa.highest {
		shift := seq - sa.highest
		if shift >= ReplayWindow {
			sa.window = 0
		} else {
			sa.window <<= shift
		}
		sa.window |= 1
		sa.highest = seq
		return
	}
	sa.window |= 1 << (sa.highest - seq)
}

// Pair bundles both directions of an association's data plane.
type Pair struct {
	Out *OutboundSA
	In  *InboundSA
}

// NewPair builds SAs from negotiated association keys. localSPI is the SPI
// peers use to reach us (inbound); remoteSPI is the peer's inbound SPI
// (our outbound).
func NewPair(keys keymat.AssociationKeys, localSPI, remoteSPI uint32) (*Pair, error) {
	out, err := NewOutbound(remoteSPI, keys.Suite, keys.ESPEncOut, keys.ESPAuthOut)
	if err != nil {
		return nil, err
	}
	in, err := NewInbound(localSPI, keys.Suite, keys.ESPEncIn, keys.ESPAuthIn)
	if err != nil {
		return nil, err
	}
	return &Pair{Out: out, In: in}, nil
}

// Zeroize retires both SAs of the pair. Nil-safe: rekey and teardown
// paths call it on associations that may never have installed SAs.
func (p *Pair) Zeroize() {
	if p == nil {
		return
	}
	p.Out.Zeroize()
	p.In.Zeroize()
}
