package keymat

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
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

func TestCTRXorMatchesStdlib(t *testing.T) {
	key := []byte("0123456789abcdef")
	block, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	iv := [16]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfe}
	for _, n := range []int{0, 1, 15, 16, 17, 64, 1400, 1441} {
		src := bytes.Repeat([]byte{0xA5}, n)
		want := make([]byte, n)
		cipher.NewCTR(block, iv[:]).XORKeyStream(want, src)
		c := &ctrHMAC{etm: etm{block: block, iv: iv}}
		got := make([]byte, n)
		c.ctrXor(got, src)
		if !bytes.Equal(got, want) {
			t.Fatalf("ctrXor mismatch at len %d (counter carry case)", n)
		}
		// In-place operation must give the same result, and the IV the
		// keystream started from must survive the run.
		inPlace := append([]byte(nil), src...)
		c.ctrXor(inPlace, inPlace)
		if !bytes.Equal(inPlace, want) || c.iv != iv {
			t.Fatalf("in-place ctrXor mismatch at len %d", n)
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
