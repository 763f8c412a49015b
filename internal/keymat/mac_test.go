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

// ctrXor must produce cipher.NewCTR's keystream at every length around
// the chunk and block edges, from IVs whose low 64-bit limb carries into
// the high one mid-run and whose whole 128 bits wrap, in place and into
// a disjoint buffer.
func TestCTRXorMatchesStdlib(t *testing.T) {
	block, err := aes.NewCipher([]byte("0123456789abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	chunk := ctrChunk * aes.BlockSize
	random := make([]byte, aes.BlockSize)
	rand.New(rand.NewSource(1)).Read(random)
	carry := make([]byte, aes.BlockSize) // low limb 2⁶⁴−3: carries at block 3
	binary.BigEndian.PutUint64(carry[8:], 1<<64-3)
	carry[7] = 0x42
	ivs := []struct {
		name string
		iv   []byte
	}{
		{"random", random},
		{"low-limb carry", carry},
		{"128-bit wrap", bytes.Repeat([]byte{0xff}, aes.BlockSize)},
		{"128-bit wrap at block 2", append(bytes.Repeat([]byte{0xff}, aes.BlockSize-1), 0xfe)},
	}
	lens := []int{0, 1, 15, 16, 17, 64, chunk - 1, chunk, chunk + 1, 1400, 1441, 3*chunk + 17, 16<<10 + 5}
	for _, tc := range ivs {
		name, iv := tc.name, tc.iv
		for _, n := range lens {
			src := make([]byte, n)
			for i := range src {
				src[i] = byte(i*7 + 3)
			}
			want := make([]byte, n)
			cipher.NewCTR(block, iv).XORKeyStream(want, src)
			c := &ctrHMAC{etm: etm{block: block, iv: [16]byte(iv)}}
			got := make([]byte, n)
			c.ctrXor(got, src)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s IV, len %d: disjoint ctrXor differs from cipher.NewCTR", name, n)
			}
			// In place must give the same bytes, and the IV the
			// keystream started from must survive the run.
			c.ctrXor(src, src)
			if !bytes.Equal(src, want) || c.iv != [16]byte(iv) {
				t.Fatalf("%s IV, len %d: in-place ctrXor differs from cipher.NewCTR", name, n)
			}
		}
	}
}

func TestCTRXorZeroAlloc(t *testing.T) {
	block, _ := aes.NewCipher([]byte("0123456789abcdef"))
	buf := make([]byte, 1400)
	c := &ctrHMAC{etm: etm{block: block}}
	allocs := testing.AllocsPerRun(100, func() {
		c.iv[15] = 1
		c.ctrXor(buf, buf)
	})
	if allocs != 0 {
		t.Fatalf("ctrXor allocates %v times per run, want 0", allocs)
	}
}
