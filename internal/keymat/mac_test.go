package keymat

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"testing"
)

func TestMACMatchesStdlib(t *testing.T) {
	key := []byte("0123456789abcdef0123456789abcdef")
	m := newMAC(key)
	for _, msg := range [][]byte{nil, []byte("a"), bytes.Repeat([]byte{0x5c}, 200)} {
		m.Reset()
		m.Write(msg)
		got := m.Sum()
		ref := hmac.New(sha256.New, key)
		ref.Write(msg)
		want := ref.Sum(nil)
		if !bytes.Equal(got, want) {
			t.Fatalf("MAC mismatch for %d-byte message", len(msg))
		}
		m.Reset()
		m.Write(msg)
		if !m.VerifyTrunc(want[:16], 16) {
			t.Fatal("VerifyTrunc rejected a valid tag")
		}
		m.Reset()
		m.Write(msg)
		bad := append([]byte(nil), want[:16]...)
		bad[0] ^= 1
		if m.VerifyTrunc(bad, 16) {
			t.Fatal("VerifyTrunc accepted a corrupted tag")
		}
	}
}

func TestMACZeroAllocSteadyState(t *testing.T) {
	m := newMAC([]byte("0123456789abcdef0123456789abcdef"))
	msg := bytes.Repeat([]byte{7}, 1400)
	// One full cycle to settle any lazy state caching.
	m.Reset()
	m.Write(msg)
	m.Sum()
	allocs := testing.AllocsPerRun(100, func() {
		m.Reset()
		m.Write(msg)
		m.Sum()
	})
	if allocs != 0 {
		t.Fatalf("MAC cycle allocates %v times per run, want 0", allocs)
	}
}

// forEachCTRPath runs f once per ctrXor implementation this machine
// has: the AES-NI kernel where ctrAsm is set, and the portable loop,
// which clearing ctrAsm forces. Transforms must be built inside f.
func forEachCTRPath(t *testing.T, f func(t *testing.T)) {
	saved := ctrAsm
	t.Cleanup(func() { ctrAsm = saved })
	for _, asm := range []bool{true, false} {
		if asm && !saved {
			continue
		}
		ctrAsm = asm
		name := "portable"
		if asm {
			name = "aesni"
		}
		t.Run(name, f)
	}
}

// newTestCTR builds a bare CTR transform under key, starting at iv.
func newTestCTR(tb testing.TB, key, iv []byte) *ctrHMAC {
	tb.Helper()
	block, err := aes.NewCipher(key)
	if err != nil {
		tb.Fatal(err)
	}
	c := &ctrHMAC{etm: etm{block: block}}
	c.expandKey(key)
	copy(c.iv[:], iv)
	return c
}

// ctrMatchesStdlib checks ctrXor from c.iv against cipher.NewCTR over
// src, into a disjoint buffer and in place, and that the IV the
// keystream started from survives both runs.
func ctrMatchesStdlib(t *testing.T, c *ctrHMAC, src []byte) {
	t.Helper()
	iv := c.iv
	want := make([]byte, len(src))
	cipher.NewCTR(c.block, iv[:]).XORKeyStream(want, src)
	got := make([]byte, len(src))
	c.ctrXor(got, src)
	if !bytes.Equal(got, want) {
		t.Fatalf("IV %x, len %d: disjoint ctrXor differs from cipher.NewCTR", iv, len(src))
	}
	inPlace := append([]byte(nil), src...)
	c.ctrXor(inPlace, inPlace)
	if !bytes.Equal(inPlace, want) || c.iv != iv {
		t.Fatalf("IV %x, len %d: in-place ctrXor differs from cipher.NewCTR", iv, len(src))
	}
}

// ctrXor must produce cipher.NewCTR's keystream on both paths at every
// length around the block, kernel-pass and chunk edges, from IVs whose
// low 64-bit limb carries into the high one mid-run and whose whole 128
// bits wrap, in place and into a disjoint buffer.
func TestCTRXorMatchesStdlib(t *testing.T) {
	key := []byte("0123456789abcdef")
	chunk := ctrChunk * aes.BlockSize
	random := make([]byte, aes.BlockSize)
	rand.New(rand.NewSource(1)).Read(random)
	// carryAt's low limb is 2⁶⁴−n, so it carries into the high one at
	// block n: 3 is inside the kernel's first pass, 10 inside its tail
	// pass for lengths 129–255.
	carryAt := func(n uint64) []byte {
		iv := make([]byte, aes.BlockSize)
		iv[7] = 0x42
		binary.BigEndian.PutUint64(iv[8:], -n)
		return iv
	}
	ivs := [][]byte{
		random,
		carryAt(3),
		carryAt(10),
		bytes.Repeat([]byte{0xff}, aes.BlockSize),                 // 128-bit wrap
		append(bytes.Repeat([]byte{0xff}, aes.BlockSize-1), 0xfe), // 128-bit wrap at block 2
	}
	lens := []int{0, 1, 15, 16, 17, 64, 127, 128, 129, 255, 256, 257,
		chunk - 1, chunk, chunk + 1, 1400, 1441, 3*chunk + 17, 16<<10 + 1, 16<<10 + 5}
	forEachCTRPath(t, func(t *testing.T) {
		for _, iv := range ivs {
			c := newTestCTR(t, key, iv)
			for _, n := range lens {
				src := make([]byte, n)
				for i := range src {
					src[i] = byte(i*7 + 3)
				}
				ctrMatchesStdlib(t, c, src)
			}
		}
	})
}

// The AES-NI key schedule is FIPS-197's: Appendix A.1's key expands to
// its first and last round keys.
func TestCTRKeyScheduleFIPS197(t *testing.T) {
	if !ctrAsm {
		t.Skip("no AES-NI kernel on this machine")
	}
	key := unhex(t, "2b7e151628aed2a6abf7158809cf4f3c")
	c := newTestCTR(t, key, nil)
	if first, last := c.rk[:16], c.rk[160:]; !bytes.Equal(first, key) ||
		!bytes.Equal(last, unhex(t, "d014f9a8c9ee2589e13f0cc8b6630ca6")) {
		t.Fatalf("round keys 0 and 10: %x, %x", first, last)
	}
}

func TestCTRXorZeroAlloc(t *testing.T) {
	forEachCTRPath(t, func(t *testing.T) {
		c := newTestCTR(t, []byte("0123456789abcdef"), nil)
		buf := make([]byte, 1400)
		allocs := testing.AllocsPerRun(100, func() {
			c.iv[15] = 1
			c.ctrXor(buf, buf)
		})
		if allocs != 0 {
			t.Fatalf("ctrXor allocates %v times per run, want 0", allocs)
		}
	})
}

// FuzzCTRKeystream compares ctrXor (the AES-NI kernel where the machine
// has one) against cipher.NewCTR for fuzz-chosen keys, IVs and inputs of
// up to 4 KiB, in place and into a separate dst.
func FuzzCTRKeystream(f *testing.F) {
	for _, n := range []int{0, 1, 15, 16, 17, 127, 128, 129, 1400, 4096} {
		f.Add([]byte("0123456789abcdef"), bytes.Repeat([]byte{0xff}, 16), bytes.Repeat([]byte{0x5A}, n))
	}
	f.Fuzz(func(t *testing.T, key, iv, src []byte) {
		var k, v [aes.BlockSize]byte
		copy(k[:], key)
		copy(v[:], iv)
		ctrMatchesStdlib(t, newTestCTR(t, k[:], v[:]), src[:min(len(src), 4096)])
	})
}

func BenchmarkCTRXor1400(b *testing.B) {
	c := newTestCTR(b, []byte("0123456789abcdef"), nil)
	buf := make([]byte, 1400)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ctrXor(buf, buf)
	}
}
