package keymat

// The 2012 suites as encrypt-then-MAC composites behind the AEAD
// interface: NULL, AES-128-CTR and AES-128-CBC, each authenticated with
// HMAC-SHA-256 truncated to TagLen bytes. One wire rule serves ESP and
// the tlslite record layer:
//
//	sealed = IV[:ivLen] ‖ ciphertext ‖ HMAC(aad ‖ IV[:ivLen] ‖ ciphertext)[:16]
//	IV     = AES_k(aad[:8] ‖ 0⁸)
//
// where aad is the 8 bytes the caller already authenticates (the ESP
// header SPI‖seq, or the record sequence number). The IV is a function
// of key and aad alone, so the composites ignore the nonce argument; the
// caller's sequence counter in aad is what keeps IVs from repeating.
// ivLen — how much of the IV travels in front of the ciphertext — is the
// only thing the two layers disagree on (ESP-CTR 8, ESP-CBC 16, tlslite
// 0) and is fixed at construction. Open recomputes the IV from aad and
// rejects a packet whose explicit prefix differs.

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"hash"
)

// mac is a reusable keyed HMAC-SHA-256 state. The keyed inner/outer pads
// are computed once at construction; every Sum afterwards reset-reuses
// the state, so the steady-state per-packet MAC cost is two compression
// runs and zero heap allocations (versus hmac.New + Sum(nil) per packet).
//
// A mac is stateful scratch: it is not safe for concurrent use, and the
// slice returned by Sum aliases internal storage that the next Reset/Sum
// overwrites.
type mac struct {
	h   hash.Hash
	sum [sha256.Size]byte
}

// newMAC builds a reusable HMAC-SHA-256 over key. The first Reset/Sum
// cycle caches the keyed pad states; all later cycles are allocation-free.
func newMAC(key []byte) *mac {
	m := &mac{h: hmac.New(sha256.New, key)}
	// Warm the state cache: the stdlib HMAC marshals its keyed inner and
	// outer digests on the first Sum+Reset so later cycles only restore
	// them. Doing it here keeps the first real packet off the slow path.
	m.h.Sum(m.sum[:0])
	m.h.Reset()
	return m
}

// Reset rewinds the MAC to its keyed initial state.
func (m *mac) Reset() { m.h.Reset() }

// Write absorbs p into the MAC.
func (m *mac) Write(p []byte) { m.h.Write(p) }

// Sum finalizes the MAC and returns the 32-byte digest. The result
// aliases internal scratch valid until the next Reset/Sum on this MAC.
func (m *mac) Sum() []byte { return m.h.Sum(m.sum[:0]) }

// SumTrunc finalizes the MAC and returns its first n bytes (n <= 32),
// aliasing internal scratch like Sum.
func (m *mac) SumTrunc(n int) []byte { return m.Sum()[:n] }

// VerifyTrunc finalizes the MAC and compares its n-byte truncation
// against tag in constant time.
func (m *mac) VerifyTrunc(tag []byte, n int) bool {
	return hmac.Equal(tag, m.Sum()[:n])
}

// Zeroize drops the keyed state and wipes the digest scratch. The
// stdlib HMAC holds keyed pad copies internally that cannot be wiped
// portably; releasing the reference is the best that can be done for
// them. The MAC is unusable afterwards.
func (m *mac) Zeroize() {
	m.h = nil
	m.sum = [sha256.Size]byte{}
}

// etm is the half the three composites share: the keyed HMAC, the AES
// block that derives IVs (nil for NULL) and the IV scratch. The scratch
// arrays cross the cipher.Block interface, so they live in the
// heap-resident transform rather than on a per-packet stack.
type etm struct {
	mac   *mac
	block cipher.Block
	ivLen int
	iv    [16]byte
}

// deriveIV computes the per-packet IV by encrypting aad[:8] ‖ 0⁸ under
// the cipher key — deterministic, unique per (key, aad).
func (e *etm) deriveIV(aad []byte) {
	e.iv = [16]byte{}
	copy(e.iv[:8], aad)
	e.block.Encrypt(e.iv[:], e.iv[:])
}

// begin sizes the sealed output on dst, derives the IV and writes its
// explicit prefix; the caller encrypts into out[ivLen:] and calls tag.
func (e *etm) begin(dst []byte, n int, aad []byte) (ret, out []byte) {
	ret, out = Extend(dst, e.ivLen+n+TagLen)
	e.deriveIV(aad)
	copy(out, e.iv[:e.ivLen])
	return ret, out
}

// absorb restarts the MAC over aad ‖ body.
func (e *etm) absorb(aad, body []byte) {
	e.mac.Reset()
	e.mac.Write(aad)
	e.mac.Write(body)
}

// tag fills out's last TagLen bytes with the MAC over aad and the rest.
func (e *etm) tag(out, aad []byte) {
	body := out[:len(out)-TagLen]
	e.absorb(aad, body)
	copy(out[len(body):], e.mac.SumTrunc(TagLen))
}

// verify checks sealed's trailing tag in constant time and returns what
// it covers.
func (e *etm) verify(sealed, aad []byte) ([]byte, error) {
	if len(sealed) < TagLen {
		return nil, ErrAuthFailed
	}
	body := sealed[:len(sealed)-TagLen]
	e.absorb(aad, body)
	if !e.mac.VerifyTrunc(sealed[len(body):], TagLen) {
		return nil, ErrAuthFailed
	}
	return body, nil
}

// open verifies sealed, re-derives the IV from aad and strips the
// explicit IV prefix after checking it, returning the bare ciphertext.
func (e *etm) open(sealed, aad []byte) ([]byte, error) {
	body, err := e.verify(sealed, aad)
	if err != nil {
		return nil, err
	}
	if len(body) < e.ivLen {
		return nil, ErrMalformed
	}
	e.deriveIV(aad)
	if !hmac.Equal(body[:e.ivLen], e.iv[:e.ivLen]) {
		return nil, ErrAuthFailed
	}
	return body[e.ivLen:], nil
}

// Zeroize drops the keyed MAC and cipher and wipes the IV scratch. The
// expanded AES key schedule inside cipher.Block cannot be wiped portably;
// dropping the reference is the best available.
func (e *etm) Zeroize() {
	e.mac.Zeroize()
	e.block = nil
	e.iv = [16]byte{}
}

// nullHMAC is SuiteNullSHA256: integrity only, the plaintext travels as
// is and there is no IV.
type nullHMAC struct{ etm }

func (c *nullHMAC) Seal(dst []byte, _ *[NonceLen]byte, plaintext, aad []byte) []byte {
	ret, out := Extend(dst, len(plaintext)+TagLen)
	copy(out, plaintext)
	c.tag(out, aad)
	return ret
}

func (c *nullHMAC) Open(dst []byte, _ *[NonceLen]byte, sealed, aad []byte) ([]byte, error) {
	body, err := c.verify(sealed, aad)
	if err != nil {
		return nil, err
	}
	return append(dst, body...), nil
}

// ctrChunk is how many counter blocks the portable ctrXor builds,
// encrypts and XORs at a time.
const (
	ctrChunk    = 64
	ctrChunkLen = ctrChunk * aes.BlockSize
)

// ctrRoundKeyLen is the size of the AES-128 key schedule: 11 round keys.
const ctrRoundKeyLen = 11 * aes.BlockSize

// ctrHMAC is SuiteAESCTRSHA256. rk is the key schedule of the AES-NI
// kernel, which expandKey fills (it stays zero where ctrAsm is off), and
// ks is the keystream chunk both paths work in: it crosses the
// cipher.Block interface, so it lives here like the IV scratch.
type ctrHMAC struct {
	etm
	rk [ctrRoundKeyLen]byte
	ks [ctrChunkLen]byte
}

func (c *ctrHMAC) Seal(dst []byte, _ *[NonceLen]byte, plaintext, aad []byte) []byte {
	ret, out := c.begin(dst, len(plaintext), aad)
	c.ctrXor(out[c.ivLen:], plaintext)
	c.tag(out, aad)
	return ret
}

func (c *ctrHMAC) Open(dst []byte, _ *[NonceLen]byte, sealed, aad []byte) ([]byte, error) {
	ct, err := c.open(sealed, aad)
	if err != nil {
		return nil, err
	}
	ret, out := Extend(dst, len(ct))
	c.ctrXor(out, ct)
	return ret, nil
}

// ctrXor applies the AES-CTR keystream that starts at c.iv to src,
// writing len(src) bytes into dst (dst and src overlap entirely or not
// at all). Unlike cipher.NewCTR it allocates no stream state, so
// per-packet encryption stays on the zero-allocation fast path. The
// counter is the IV as a 128-bit big-endian integer, incremented per
// block as cipher.NewCTR does. Where ctrAsm is set the AES-NI kernel
// does the work, eight blocks per pass (ctr_amd64.go). Otherwise each
// chunk of up to ctrChunk blocks takes three passes over c.ks: write the
// counter blocks, encrypt them in place through c.block, XOR the chunk
// into dst.
func (c *ctrHMAC) ctrXor(dst, src []byte) {
	if ctrAsm {
		c.ctrXorAsm(dst, src)
		return
	}
	hi := binary.BigEndian.Uint64(c.iv[:8])
	lo := binary.BigEndian.Uint64(c.iv[8:])
	for off := 0; off < len(src); off += len(c.ks) {
		rem := len(src) - off
		// The len(b) test ends a pass at the end of the chunk when more
		// than a chunk remains, and lets the compiler drop the bounds
		// checks on b.
		b := c.ks[:]
		for m := 0; m < rem && len(b) >= aes.BlockSize; m += aes.BlockSize {
			binary.BigEndian.PutUint64(b[:8], hi)
			binary.BigEndian.PutUint64(b[8:aes.BlockSize], lo)
			lo++
			if lo == 0 {
				hi++
			}
			b = b[aes.BlockSize:]
		}
		b = c.ks[:]
		for m := 0; m < rem && len(b) >= aes.BlockSize; m += aes.BlockSize {
			c.block.Encrypt(b[:aes.BlockSize], b[:aes.BlockSize])
			b = b[aes.BlockSize:]
		}
		subtle.XORBytes(dst[off:], src[off:], c.ks[:])
	}
}

// Zeroize also wipes the key schedule and the keystream chunk.
func (c *ctrHMAC) Zeroize() {
	c.etm.Zeroize()
	c.rk = [len(c.rk)]byte{}
	c.ks = [len(c.ks)]byte{}
}

// cbcMode is a stdlib CBC mode that can be re-IV'd per packet instead of
// reallocated (the assertion crypto/tls makes of the same types).
type cbcMode interface {
	cipher.BlockMode
	SetIV([]byte)
}

// cbcHMAC is SuiteAESCBCSHA256. The plaintext handed to Seal must be a
// whole number of AES blocks (ESP pads it); Open rejects anything else.
type cbcHMAC struct {
	etm
	enc, dec cbcMode
}

func newCBCHMAC(e etm) *cbcHMAC {
	return &cbcHMAC{
		etm: e,
		enc: cipher.NewCBCEncrypter(e.block, e.iv[:]).(cbcMode),
		dec: cipher.NewCBCDecrypter(e.block, e.iv[:]).(cbcMode),
	}
}

func (c *cbcHMAC) Seal(dst []byte, _ *[NonceLen]byte, plaintext, aad []byte) []byte {
	ret, out := c.begin(dst, len(plaintext), aad)
	c.enc.SetIV(c.iv[:])
	c.enc.CryptBlocks(out[c.ivLen:], plaintext)
	c.tag(out, aad)
	return ret
}

func (c *cbcHMAC) Open(dst []byte, _ *[NonceLen]byte, sealed, aad []byte) ([]byte, error) {
	ct, err := c.open(sealed, aad)
	if err != nil {
		return nil, err
	}
	if len(ct)%c.dec.BlockSize() != 0 {
		return nil, ErrMalformed
	}
	ret, out := Extend(dst, len(ct))
	c.dec.SetIV(c.iv[:])
	c.dec.CryptBlocks(out, ct)
	return ret, nil
}

// Zeroize also drops the cached modes (they reference the block and hold
// the last chaining value).
func (c *cbcHMAC) Zeroize() {
	c.etm.Zeroize()
	c.enc, c.dec = nil, nil
}
