package keymat

// In-repo ChaCha20-Poly1305 (RFC 8439). The module is stdlib-only by
// policy, so the construction is implemented here rather than pulled
// from x/crypto: the ChaCha20 block function feeds both the keystream
// and the one-time Poly1305 key (block counter 0), and the tag covers
// aad || pad16 || ciphertext || pad16 || le64(len(aad)) || le64(len(ct)).
// Poly1305 runs on 64-bit limbs via math/bits; the tag comparison is
// constant time.

import (
	"crypto/subtle"
	"encoding/binary"
	"math/bits"
)

// ChaChaPoly is a ChaCha20-Poly1305 AEAD instance. The struct owns all
// scratch it needs, so Seal/Open allocate nothing beyond what the caller
// hands in.
type ChaChaPoly struct {
	key   [8]uint32 // key words, little-endian
	block [64]byte  // one-block keystream / one-time-key scratch
}

// NewChaChaPoly builds the AEAD from a 32-byte key.
func NewChaChaPoly(key []byte) (*ChaChaPoly, error) {
	if len(key) != 32 {
		return nil, ErrKeyLen
	}
	c := &ChaChaPoly{}
	for i := range c.key {
		c.key[i] = binary.LittleEndian.Uint32(key[4*i:])
	}
	return c, nil
}

// Zeroize wipes the key schedule and the keystream scratch.
func (c *ChaChaPoly) Zeroize() {
	c.key = [8]uint32{}
	c.block = [64]byte{}
}

// Seal appends ciphertext||tag to dst. In-place operation (dst =
// region[:0] aliasing plaintext) is supported.
func (c *ChaChaPoly) Seal(dst []byte, nonce *[NonceLen]byte, plaintext, aad []byte) []byte {
	ret, out := Extend(dst, len(plaintext)+TagLen)
	ct := out[:len(plaintext)]
	c.xorKeyStream(ct, plaintext, nonce)
	var tag [TagLen]byte
	c.tag(&tag, nonce, ct, aad)
	copy(out[len(plaintext):], tag[:])
	return ret
}

// Open verifies the trailing tag in constant time and, on success,
// appends the plaintext to dst. The ciphertext is not decrypted on tag
// mismatch. In-place operation is supported.
func (c *ChaChaPoly) Open(dst []byte, nonce *[NonceLen]byte, ciphertext, aad []byte) ([]byte, error) {
	if len(ciphertext) < TagLen {
		return nil, ErrAuthFailed
	}
	ct := ciphertext[:len(ciphertext)-TagLen]
	var want [TagLen]byte
	c.tag(&want, nonce, ct, aad)
	if subtle.ConstantTimeCompare(want[:], ciphertext[len(ct):]) != 1 {
		return nil, ErrAuthFailed
	}
	ret, out := Extend(dst, len(ct))
	c.xorKeyStream(out, ct, nonce)
	return ret, nil
}

// tag computes the Poly1305 tag over the RFC 8439 AEAD layout. The
// one-time key is the first 32 bytes of keystream block 0.
func (c *ChaChaPoly) tag(out *[TagLen]byte, nonce *[NonceLen]byte, ct, aad []byte) {
	c.chachaBlock(0, nonce, &c.block)
	var p poly1305
	p.init(&c.block)
	p.segment(aad)
	p.segment(ct)
	p.addBlock(uint64(len(aad)), uint64(len(ct)))
	p.finish(out)
	// The one-time key sits in the shared scratch; clear it so it does
	// not outlive the packet (Seal overwrote it with keystream already
	// when the payload is non-empty, but not for empty payloads).
	c.block = [64]byte{}
}

// xorKeyStream XORs src into dst under the keystream starting at block
// counter 1 (counter 0 is reserved for the one-time Poly1305 key).
// Exact aliasing of dst and src is allowed.
func (c *ChaChaPoly) xorKeyStream(dst, src []byte, nonce *[NonceLen]byte) {
	counter := uint32(1)
	for len(src) > 0 {
		c.chachaBlock(counter, nonce, &c.block)
		counter++
		n := len(src)
		if n > len(c.block) {
			n = len(c.block)
		}
		subtle.XORBytes(dst[:n], src[:n], c.block[:n])
		dst = dst[n:]
		src = src[n:]
	}
}

// chachaBlock writes one 64-byte keystream block for the given counter.
func (c *ChaChaPoly) chachaBlock(counter uint32, nonce *[NonceLen]byte, out *[64]byte) {
	const c0, c1, c2, c3 = 0x61707865, 0x3320646e, 0x79622d32, 0x6b206574 // "expand 32-byte k"
	n0 := binary.LittleEndian.Uint32(nonce[0:4])
	n1 := binary.LittleEndian.Uint32(nonce[4:8])
	n2 := binary.LittleEndian.Uint32(nonce[8:12])

	x0, x1, x2, x3 := uint32(c0), uint32(c1), uint32(c2), uint32(c3)
	x4, x5, x6, x7 := c.key[0], c.key[1], c.key[2], c.key[3]
	x8, x9, x10, x11 := c.key[4], c.key[5], c.key[6], c.key[7]
	x12, x13, x14, x15 := counter, n0, n1, n2

	for i := 0; i < 10; i++ {
		// Column round.
		x0, x4, x8, x12 = chachaQR(x0, x4, x8, x12)
		x1, x5, x9, x13 = chachaQR(x1, x5, x9, x13)
		x2, x6, x10, x14 = chachaQR(x2, x6, x10, x14)
		x3, x7, x11, x15 = chachaQR(x3, x7, x11, x15)
		// Diagonal round.
		x0, x5, x10, x15 = chachaQR(x0, x5, x10, x15)
		x1, x6, x11, x12 = chachaQR(x1, x6, x11, x12)
		x2, x7, x8, x13 = chachaQR(x2, x7, x8, x13)
		x3, x4, x9, x14 = chachaQR(x3, x4, x9, x14)
	}

	binary.LittleEndian.PutUint32(out[0:], x0+c0)
	binary.LittleEndian.PutUint32(out[4:], x1+c1)
	binary.LittleEndian.PutUint32(out[8:], x2+c2)
	binary.LittleEndian.PutUint32(out[12:], x3+c3)
	binary.LittleEndian.PutUint32(out[16:], x4+c.key[0])
	binary.LittleEndian.PutUint32(out[20:], x5+c.key[1])
	binary.LittleEndian.PutUint32(out[24:], x6+c.key[2])
	binary.LittleEndian.PutUint32(out[28:], x7+c.key[3])
	binary.LittleEndian.PutUint32(out[32:], x8+c.key[4])
	binary.LittleEndian.PutUint32(out[36:], x9+c.key[5])
	binary.LittleEndian.PutUint32(out[40:], x10+c.key[6])
	binary.LittleEndian.PutUint32(out[44:], x11+c.key[7])
	binary.LittleEndian.PutUint32(out[48:], x12+counter)
	binary.LittleEndian.PutUint32(out[52:], x13+n0)
	binary.LittleEndian.PutUint32(out[56:], x14+n1)
	binary.LittleEndian.PutUint32(out[60:], x15+n2)
}

// chachaQR is the ChaCha quarter round; small enough for the compiler
// to inline into the unrolled double round above.
func chachaQR(a, b, cc, d uint32) (uint32, uint32, uint32, uint32) {
	a += b
	d ^= a
	d = bits.RotateLeft32(d, 16)
	cc += d
	b ^= cc
	b = bits.RotateLeft32(b, 12)
	a += b
	d ^= a
	d = bits.RotateLeft32(d, 8)
	cc += d
	b ^= cc
	b = bits.RotateLeft32(b, 7)
	return a, b, cc, d
}

// poly1305 is the one-time authenticator, 64-bit-limb arithmetic over
// 2^130 - 5. State lives on the caller's stack; nothing escapes.
type poly1305 struct {
	r [2]uint64 // clamped r
	s [2]uint64
	h [3]uint64 // accumulator, h2 holds the bits above 2^128
}

// init loads and clamps r||s from the first 32 bytes of the one-time
// key block and resets the accumulator.
func (p *poly1305) init(key *[64]byte) {
	p.r[0] = binary.LittleEndian.Uint64(key[0:8]) & 0x0FFFFFFC0FFFFFFF
	p.r[1] = binary.LittleEndian.Uint64(key[8:16]) & 0x0FFFFFFC0FFFFFFC
	p.s[0] = binary.LittleEndian.Uint64(key[16:24])
	p.s[1] = binary.LittleEndian.Uint64(key[24:32])
	p.h = [3]uint64{}
}

// segment absorbs data, zero-padding the final partial block to 16
// bytes as the RFC 8439 AEAD layout requires (pad16): every absorbed
// block is therefore a full block with the 2^128 bit set.
func (p *poly1305) segment(data []byte) {
	for len(data) >= 16 {
		p.addBlock(
			binary.LittleEndian.Uint64(data[0:8]),
			binary.LittleEndian.Uint64(data[8:16]),
		)
		data = data[16:]
	}
	if len(data) > 0 {
		var buf [16]byte
		copy(buf[:], data)
		p.addBlock(
			binary.LittleEndian.Uint64(buf[0:8]),
			binary.LittleEndian.Uint64(buf[8:16]),
		)
	}
}

// addBlock folds one 16-byte block (as two little-endian limbs, with
// the implicit 2^128 bit) into the accumulator: h = (h + m) * r mod p.
func (p *poly1305) addBlock(lo, hi uint64) {
	h0, h1, h2 := p.h[0], p.h[1], p.h[2]
	r0, r1 := p.r[0], p.r[1]

	var c uint64
	h0, c = bits.Add64(h0, lo, 0)
	h1, c = bits.Add64(h1, hi, c)
	h2 += c + 1 // the 2^128 block bit

	// Schoolbook multiply of the ~130-bit h by the clamped ~124-bit r.
	// h2 stays below 8 after reduction, so its partial products fit in
	// a single limb each.
	m0hi, m0lo := bits.Mul64(h0, r0)
	m1ahi, m1alo := bits.Mul64(h1, r0)
	m1bhi, m1blo := bits.Mul64(h0, r1)
	m2ahi, m2alo := bits.Mul64(h1, r1)
	m2b := h2 * r0
	m3 := h2 * r1

	m1lo, c := bits.Add64(m1alo, m1blo, 0)
	m1hi, _ := bits.Add64(m1ahi, m1bhi, c)
	m2lo, c := bits.Add64(m2alo, m2b, 0)
	m2hi := m2ahi + c

	t0 := m0lo
	t1, c := bits.Add64(m1lo, m0hi, 0)
	t2, c := bits.Add64(m2lo, m1hi, c)
	t3, _ := bits.Add64(m3, m2hi, c)

	// Reduce mod 2^130 - 5: the value above bit 130 re-enters times 5
	// (cc is that value left-aligned at bit 2, so 5*v = cc + cc>>2).
	h0, h1, h2 = t0, t1, t2&3
	ccLo, ccHi := t2&^uint64(3), t3
	h0, c = bits.Add64(h0, ccLo, 0)
	h1, c = bits.Add64(h1, ccHi, c)
	h2 += c
	ccLo = ccLo>>2 | ccHi<<62
	ccHi >>= 2
	h0, c = bits.Add64(h0, ccLo, 0)
	h1, c = bits.Add64(h1, ccHi, c)
	h2 += c

	p.h[0], p.h[1], p.h[2] = h0, h1, h2
}

// finish reduces the accumulator fully, adds s, and writes the tag.
func (p *poly1305) finish(out *[TagLen]byte) {
	h0, h1, h2 := p.h[0], p.h[1], p.h[2]

	// Constant-time conditional subtraction of p = 2^130 - 5.
	t0, b := bits.Sub64(h0, 0xFFFFFFFFFFFFFFFB, 0)
	t1, b := bits.Sub64(h1, 0xFFFFFFFFFFFFFFFF, b)
	_, b = bits.Sub64(h2, 3, b)
	// b == 1 means h < p: keep h; otherwise take h - p.
	keep := b - 1 // 0x00..0 when h < p, 0xFF..F when h >= p
	h0 = (t0 & keep) | (h0 &^ keep)
	h1 = (t1 & keep) | (h1 &^ keep)

	var c uint64
	h0, c = bits.Add64(h0, p.s[0], 0)
	h1, _ = bits.Add64(h1, p.s[1], c)
	binary.LittleEndian.PutUint64(out[0:8], h0)
	binary.LittleEndian.PutUint64(out[8:16], h1)
}
