package keymat

import "encoding/binary"

// CPUID leaf 1 ECX bits the AES-NI kernel (ctr_amd64.s) needs: AES-NI for
// the rounds and the key schedule, SSSE3 for PSHUFB and SSE4.1 for
// PINSRQ, which build the big-endian counter blocks.
const (
	cpuidSSSE3  = 1 << 9
	cpuidSSE41  = 1 << 19
	cpuidAESNI  = 1 << 25
	ctrAsmNeeds = cpuidAESNI | cpuidSSSE3 | cpuidSSE41
)

// ctrAsm selects the AES-NI kernel for ctrXor; CPUID fixes it at init.
// Tests clear it, before they build a transform, to run the portable
// loop on the same machine.
var ctrAsm = cpuid1ECX()&ctrAsmNeeds == ctrAsmNeeds

// cpuid1ECX returns ECX of CPUID leaf 1, the feature bits above.
func cpuid1ECX() uint32

// expandKey128 writes the 11 round keys of AES-128 encryption under the
// 16 bytes at key into rk, in FIPS-197 byte order.
//
//go:noescape
func expandKey128(key []byte, rk *[ctrRoundKeyLen]byte)

// ctrKernel XORs src with the AES-CTR keystream under rk that starts at
// the 128-bit big-endian counter hi‖lo, into dst (len(dst) >= len(src)):
// eight blocks per pass, and a last pass for a tail under eight blocks
// whose keystream it leaves in ks.
//
//go:noescape
func ctrKernel(rk *[ctrRoundKeyLen]byte, ks *[ctrChunkLen]byte, dst, src []byte, hi, lo uint64)

// expandKey fills the key schedule the kernel runs from when it is
// selected; key is the 16-byte AES key e.block was made from.
func (c *ctrHMAC) expandKey(key []byte) {
	if ctrAsm {
		expandKey128(key, &c.rk)
	}
}

// ctrXorAsm is ctrXor on the AES-NI kernel.
func (c *ctrHMAC) ctrXorAsm(dst, src []byte) {
	hi := binary.BigEndian.Uint64(c.iv[:8])
	lo := binary.BigEndian.Uint64(c.iv[8:])
	ctrKernel(&c.rk, &c.ks, dst, src, hi, lo)
}
