package tlslite

import (
	"bytes"
	"testing"

	"hipcloud/internal/keymat"
)

// connPair wires two Conns with matched directional keys directly (no
// handshake), for record-layer unit tests and benchmarks. The stream is
// a shared in-memory buffer: a.Write feeds b.Read.
func connPair(tb testing.TB) (a, b *Conn) {
	tb.Helper()
	return connPairSuite(tb, legacySuite)
}

// connPairSuite is connPair for an explicit record suite, deriving
// deterministic directional keys of the suite's registry lengths.
func connPairSuite(tb testing.TB, s keymat.Suite) (a, b *Conn) {
	tb.Helper()
	lb := &bytes.Buffer{}
	encLen, err := s.EncKeyLen()
	if err != nil {
		tb.Fatal(err)
	}
	authLen, err := s.AuthKeyLen()
	if err != nil {
		tb.Fatal(err)
	}
	cliEnc := bytes.Repeat([]byte{0x31}, encLen)
	srvEnc := bytes.Repeat([]byte{0x64, 0x65}, (encLen+1)/2)[:encLen]
	cliAuth := bytes.Repeat([]byte{0x11}, authLen)
	srvAuth := bytes.Repeat([]byte{0x22}, authLen)
	a, err = newConn(lb, Config{}, s, cliEnc, cliAuth, srvEnc, srvAuth, true, nil)
	if err != nil {
		tb.Fatal(err)
	}
	b, err = newConn(lb, Config{}, s, cliEnc, cliAuth, srvEnc, srvAuth, false, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return a, b
}

// sealRecord protects one application record into a fresh buffer.
func (c *Conn) sealRecord(plain []byte) []byte {
	return c.sealRecordAppend(nil, plain)
}

// openRecord verifies and decrypts one record body without modifying it,
// returning the plaintext in a fresh buffer.
func (c *Conn) openRecord(body []byte) ([]byte, error) {
	return c.openRecordInPlace(append([]byte(nil), body...))
}

func TestRecordSealAppendMatchesSealRecord(t *testing.T) {
	a1, _ := connPair(t)
	a2, _ := connPair(t)
	plain := bytes.Repeat([]byte{0x5A}, 333)
	for i := 0; i < 3; i++ {
		r1 := a1.sealRecord(plain)
		r2 := a2.sealRecordAppend(make([]byte, 0, 512), plain)
		if !bytes.Equal(r1, r2) {
			t.Fatalf("sealRecord and sealRecordAppend diverge at record %d", i)
		}
	}
}

func TestRecordRoundTripThroughConnBuffers(t *testing.T) {
	a, b := connPair(t)
	for _, n := range []int{0, 1, 100, maxRecord, maxRecord + 5000} {
		msg := bytes.Repeat([]byte{byte(n)}, n)
		if _, err := a.Write(msg); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 0, n)
		buf := make([]byte, 4096)
		for len(got) < n {
			rn, err := b.Read(buf)
			if err != nil {
				t.Fatalf("read after %d/%d bytes: %v", len(got), n, err)
			}
			got = append(got, buf[:rn]...)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("round trip mismatch at len %d", n)
		}
	}
}

func TestOpenRecordDoesNotModifyInput(t *testing.T) {
	a, b := connPair(t)
	rec := a.sealRecord([]byte("immutable input"))
	snapshot := append([]byte(nil), rec...)
	if _, err := b.openRecord(rec); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec, snapshot) {
		t.Fatal("openRecord mutated its input record")
	}
}

func TestSealRecordAppendZeroAlloc(t *testing.T) {
	a, _ := connPair(t)
	plain := bytes.Repeat([]byte{7}, 1400)
	dst := make([]byte, 0, len(plain)+macLen)
	allocs := testing.AllocsPerRun(200, func() {
		dst = a.sealRecordAppend(dst[:0], plain)
	})
	if allocs != 0 {
		t.Errorf("sealRecordAppend allocates %v/op, want 0", allocs)
	}
}

func TestOpenRecordInPlaceZeroAlloc(t *testing.T) {
	a, b := connPair(t)
	rec := a.sealRecord(bytes.Repeat([]byte{7}, 1400))
	scratch := make([]byte, len(rec))
	allocs := testing.AllocsPerRun(200, func() {
		// Decryption is in place, so restore the ciphertext and rewind
		// the sequence each run; both are allocation-free.
		copy(scratch, rec)
		b.inSeq = 0
		if _, err := b.openRecordInPlace(scratch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("openRecordInPlace allocates %v/op, want 0", allocs)
	}
}

func BenchmarkRecordSeal1400(b *testing.B) {
	a, _ := connPair(b)
	plain := bytes.Repeat([]byte{7}, 1400)
	b.SetBytes(1400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.sealRecord(plain)
	}
}

func BenchmarkRecordSealAppend1400(b *testing.B) {
	a, _ := connPair(b)
	plain := bytes.Repeat([]byte{7}, 1400)
	dst := make([]byte, 0, len(plain)+macLen)
	b.SetBytes(1400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = a.sealRecordAppend(dst[:0], plain)
	}
}

func BenchmarkRecordOpen1400(b *testing.B) {
	a, c := connPair(b)
	rec := a.sealRecord(bytes.Repeat([]byte{7}, 1400))
	b.SetBytes(1400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.inSeq = 0
		if _, err := c.openRecord(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecordOpenInPlace1400(b *testing.B) {
	a, c := connPair(b)
	rec := a.sealRecord(bytes.Repeat([]byte{7}, 1400))
	scratch := make([]byte, len(rec))
	b.SetBytes(1400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(scratch, rec)
		c.inSeq = 0
		if _, err := c.openRecordInPlace(scratch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecordWriteRead1400 measures the full Write→wire→Read path
// through the reusable conn buffers.
func BenchmarkRecordWriteRead1400(b *testing.B) {
	a, c := connPair(b)
	msg := bytes.Repeat([]byte{7}, 1400)
	out := make([]byte, 2048)
	b.SetBytes(1400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Write(msg); err != nil {
			b.Fatal(err)
		}
		for got := 0; got < len(msg); {
			n, err := c.Read(out)
			if err != nil {
				b.Fatal(err)
			}
			got += n
		}
	}
}
