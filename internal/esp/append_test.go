package esp

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"testing"

	"hipcloud/internal/keymat"
)

// reMAC recomputes a 2012-suite packet's ICV under the association's
// auth key, used by tests that forge header or body bytes on
// otherwise-valid packets (what only a key holder can do).
func reMAC(authKey, pkt []byte) {
	h := hmac.New(sha256.New, authKey)
	h.Write(pkt[:len(pkt)-ICVLen])
	copy(pkt[len(pkt)-ICVLen:], h.Sum(nil))
}

func TestSealAppendOpenAppendRoundTrip(t *testing.T) {
	for _, s := range suites {
		pi, pr := pairFor(t, s)
		dst := append([]byte(nil), "prefix-"...)
		out := append([]byte(nil), "PRE"...)
		for _, payload := range [][]byte{
			[]byte(""), []byte("x"), bytes.Repeat([]byte{0xAA}, 15),
			bytes.Repeat([]byte{0xBB}, 16), bytes.Repeat([]byte{0xCC}, 1400),
		} {
			mark := len(dst)
			var err error
			dst, err = pi.Out.SealAppend(dst, payload)
			if err != nil {
				t.Fatalf("%v seal append: %v", s, err)
			}
			pkt := dst[mark:]
			if want := pi.Out.SealedLen(len(payload)); len(pkt) != want {
				t.Fatalf("%v: SealedLen=%d, got %d", s, want, len(pkt))
			}
			if string(dst[:7]) != "prefix-" {
				t.Fatalf("%v: SealAppend clobbered dst prefix", s)
			}
			omark := len(out)
			out, err = pr.In.OpenAppend(out, pkt)
			if err != nil {
				t.Fatalf("%v open append(len=%d): %v", s, len(payload), err)
			}
			if string(out[:3]) != "PRE" {
				t.Fatalf("%v: OpenAppend clobbered dst prefix", s)
			}
			if !bytes.Equal(out[omark:], payload) {
				t.Fatalf("%v: payload mismatch len=%d", s, len(payload))
			}
		}
	}
}

// The append APIs and the classic wrappers must produce byte-identical
// wire packets for identical SA state.
func TestSealAppendMatchesSeal(t *testing.T) {
	for _, s := range suites {
		a, _ := pairFor(t, s)
		b, _ := pairFor(t, s)
		payload := bytes.Repeat([]byte{0x5A}, 100)
		for i := 0; i < 3; i++ {
			p1, err := a.Out.Seal(payload)
			if err != nil {
				t.Fatal(err)
			}
			p2, err := b.Out.SealAppend(make([]byte, 0, 256), payload)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(p1, p2) {
				t.Fatalf("%v: Seal and SealAppend diverge at packet %d", s, i)
			}
		}
	}
}

// SealHdrAppend(dst, h, p) must put on the wire exactly what SealAppend
// puts for h||p, on every suite, for every way of splitting a payload
// between the two slices: a twin SA built from the same keys seals the
// joined payload, and the peer opens the pieces' packet back into h||p.
func TestSealHdrAppendMatchesSealAppend(t *testing.T) {
	plain := make([]byte, 1419)
	for i := range plain {
		plain[i] = byte(i * 7)
	}
	for _, s := range suites {
		a, pr := pairFor(t, s)
		twin, _ := pairFor(t, s)
		for _, cut := range []int{0, 1, 5, 19, 700, len(plain) - 1, len(plain)} {
			for _, n := range []int{0, 1, 19, 20, 33, len(plain)} {
				if cut > n {
					continue
				}
				joined := plain[:n]
				split, err := a.Out.SealHdrAppend([]byte{0xEE}, joined[:cut], joined[cut:])
				if err != nil {
					t.Fatal(err)
				}
				whole, err := twin.Out.SealAppend([]byte{0xEE}, joined)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(split, whole) {
					t.Fatalf("%v: SealHdrAppend of %d+%d bytes differs from SealAppend of the %d joined", s, cut, n-cut, n)
				}
				got, err := pr.In.Open(split[1:])
				if err != nil || !bytes.Equal(got, joined) {
					t.Fatalf("%v: %d+%d bytes open to %d bytes (%v), want the joined payload", s, cut, n-cut, len(got), err)
				}
			}
		}
		if a.Out.Bytes != twin.Out.Bytes || a.Out.Packets != twin.Out.Packets {
			t.Fatalf("%v: counters %d/%d, twin %d/%d", s, a.Out.Packets, a.Out.Bytes, twin.Out.Packets, twin.Out.Bytes)
		}
	}
}

// SealAppend's CTR output must not alias SA scratch: the packet bytes stay
// stable across subsequent seals (regression for the old append(iv[:8], ...)
// construction that shared the IV's backing array).
func TestSealAppendNoScratchAliasing(t *testing.T) {
	pi, pr := pairFor(t, keymat.SuiteAESCTRSHA256)
	first, err := pi.Out.SealAppend(nil, []byte("packet one"))
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]byte(nil), first...)
	for i := 0; i < 8; i++ {
		if _, err := pi.Out.SealAppend(nil, []byte("later packet")); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(first, snapshot) {
		t.Fatal("sealed packet mutated by later SealAppend calls")
	}
	if got, err := pr.In.Open(first); err != nil || string(got) != "packet one" {
		t.Fatalf("first packet no longer opens: %q %v", got, err)
	}
}

func TestReplaySeqZeroRejected(t *testing.T) {
	pi, pr := pairFor(t, keymat.SuiteAESCTRSHA256)
	pkt, _ := pi.Out.Seal([]byte("seq one"))
	// Forge a seq-0 packet with a valid ICV: rewrite the sequence field
	// and re-MAC with the sender's (shared) auth key. The replay check
	// must reject it before any decryption.
	forged := append([]byte(nil), pkt...)
	binary.BigEndian.PutUint32(forged[4:], 0)
	ak, _ := keysFor(t, keymat.SuiteAESCTRSHA256)
	reMAC(ak.ESPAuthOut, forged)
	if _, err := pr.In.Open(forged); err != ErrReplay {
		t.Fatalf("seq 0 err = %v, want ErrReplay", err)
	}
	if _, err := pr.In.Open(pkt); err != nil {
		t.Fatalf("genuine packet rejected after seq-0 probe: %v", err)
	}
}

func TestReplayWindowExactEdge(t *testing.T) {
	pi, pr := pairFor(t, keymat.SuiteAESCTRSHA256)
	var pkts [][]byte
	for i := 0; i < ReplayWindow+1; i++ { // seqs 1..65
		p, _ := pi.Out.Seal([]byte("edge"))
		pkts = append(pkts, p)
	}
	// Establish highest = ReplayWindow+1 = 65.
	if _, err := pr.In.Open(pkts[ReplayWindow]); err != nil {
		t.Fatal(err)
	}
	// diff == ReplayWindow-1 (seq 2) is the oldest acceptable packet.
	if _, err := pr.In.Open(pkts[1]); err != nil {
		t.Fatalf("diff=ReplayWindow-1 rejected: %v", err)
	}
	// diff == ReplayWindow (seq 1) falls off the window.
	if _, err := pr.In.Open(pkts[0]); err != ErrReplay {
		t.Fatalf("diff=ReplayWindow err = %v, want ErrReplay", err)
	}
}

func TestReplayWindowWrapOnBigJump(t *testing.T) {
	pi, pr := pairFor(t, keymat.SuiteAESCTRSHA256)
	var pkts [][]byte
	jump := ReplayWindow + 6
	for i := 0; i < jump; i++ { // seqs 1..70
		p, _ := pi.Out.Seal([]byte("jump"))
		pkts = append(pkts, p)
	}
	if _, err := pr.In.Open(pkts[0]); err != nil { // seq 1, highest=1
		t.Fatal(err)
	}
	// shift = 69 >= ReplayWindow wipes the bitmap entirely.
	if _, err := pr.In.Open(pkts[jump-1]); err != nil { // seq 70
		t.Fatal(err)
	}
	if pr.In.highest != uint32(jump) || pr.In.window != 1 {
		t.Fatalf("after wrap: highest=%d window=%#x, want %d and 1",
			pr.In.highest, pr.In.window, jump)
	}
	// The wiped bitmap must accept in-window packets again...
	if _, err := pr.In.Open(pkts[jump-2]); err != nil { // seq 69
		t.Fatalf("in-window packet after wrap rejected: %v", err)
	}
	// ...while the pre-jump packet is now ancient.
	if _, err := pr.In.Open(pkts[0]); err != ErrReplay {
		t.Fatalf("pre-jump replay err = %v, want ErrReplay", err)
	}
}

// A packet that fails authentication must not advance the replay window —
// otherwise an attacker could blind the receiver to genuine traffic by
// spraying forged high sequence numbers.
func TestForgedICVDoesNotAdvanceWindow(t *testing.T) {
	pi, pr := pairFor(t, keymat.SuiteAESCTRSHA256)
	first, _ := pi.Out.Seal([]byte("one"))
	if _, err := pr.In.Open(first); err != nil {
		t.Fatal(err)
	}
	second, _ := pi.Out.Seal([]byte("two"))
	forged := append([]byte(nil), second...)
	forged[len(forged)-1] ^= 0xFF
	if _, err := pr.In.Open(forged); err != ErrAuth {
		t.Fatalf("forged ICV err = %v, want ErrAuth", err)
	}
	if pr.In.highest != 1 || pr.In.window != 1 {
		t.Fatalf("forged packet advanced window: highest=%d window=%#x",
			pr.In.highest, pr.In.window)
	}
	// The genuine packet with the same sequence still opens.
	if got, err := pr.In.Open(second); err != nil || string(got) != "two" {
		t.Fatalf("genuine packet after forgery: %q %v", got, err)
	}
}

// Alloc-regression guards: the append APIs must be allocation-free on the
// CTR and NULL fast paths once the destination buffer is warm.
func TestSealAppendZeroAlloc(t *testing.T) {
	for _, s := range []keymat.Suite{
		keymat.SuiteAESCTRSHA256, keymat.SuiteNullSHA256,
		keymat.SuiteAESGCM128, keymat.SuiteAESGCM256, keymat.SuiteChaCha20Poly1305,
	} {
		pi, _ := pairFor(t, s)
		payload := bytes.Repeat([]byte{7}, 1400)
		dst := make([]byte, 0, pi.Out.SealedLen(len(payload)))
		allocs := testing.AllocsPerRun(200, func() {
			var err error
			dst, err = pi.Out.SealAppend(dst[:0], payload)
			if err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: SealAppend allocates %v/op, want 0", s, allocs)
		}
	}
}

func TestOpenAppendZeroAlloc(t *testing.T) {
	const runs = 200
	for _, s := range []keymat.Suite{
		keymat.SuiteAESCTRSHA256, keymat.SuiteNullSHA256,
		keymat.SuiteAESGCM128, keymat.SuiteAESGCM256, keymat.SuiteChaCha20Poly1305,
	} {
		pi, pr := pairFor(t, s)
		payload := bytes.Repeat([]byte{7}, 1400)
		// AllocsPerRun invokes the function runs+1 times (one warmup) and
		// replay protection consumes each packet, so pre-seal one per call.
		pkts := make([][]byte, runs+1)
		for i := range pkts {
			p, err := pi.Out.Seal(payload)
			if err != nil {
				t.Fatal(err)
			}
			pkts[i] = p
		}
		dst := make([]byte, 0, len(payload))
		i := 0
		allocs := testing.AllocsPerRun(runs, func() {
			var err error
			dst, err = pr.In.OpenAppend(dst[:0], pkts[i])
			if err != nil {
				t.Fatal(err)
			}
			i++
		})
		if allocs != 0 {
			t.Errorf("%v: OpenAppend allocates %v/op, want 0", s, allocs)
		}
	}
}

// --- Benchmarks -----------------------------------------------------------
//
// The classic Seal/Open wrappers allocate one fresh buffer per call; the
// append variants reuse the caller's. Run with -benchmem to see the
// difference in B/op and allocs/op.

func benchSeal(b *testing.B, s keymat.Suite) {
	pi, _ := pairForBench(b, s)
	payload := bytes.Repeat([]byte{7}, 1400)
	b.SetBytes(1400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pi.Out.Seal(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSealAppend(b *testing.B, s keymat.Suite) {
	pi, _ := pairForBench(b, s)
	payload := bytes.Repeat([]byte{7}, 1400)
	dst := make([]byte, 0, pi.Out.SealedLen(len(payload)))
	b.SetBytes(1400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = pi.Out.SealAppend(dst[:0], payload)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func benchOpen(b *testing.B, s keymat.Suite) {
	pi, pr := pairForBench(b, s)
	payload := bytes.Repeat([]byte{7}, 1400)
	pkt, err := pi.Out.Seal(payload)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(1400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr.In.highest, pr.In.window = 0, 0
		if _, err := pr.In.Open(pkt); err != nil {
			b.Fatal(err)
		}
	}
}

func benchOpenAppend(b *testing.B, s keymat.Suite) {
	pi, pr := pairForBench(b, s)
	payload := bytes.Repeat([]byte{7}, 1400)
	pkt, err := pi.Out.Seal(payload)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]byte, 0, len(payload))
	b.SetBytes(1400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Rewind replay state so one pre-sealed packet serves every
		// iteration; the reset cost is two stores.
		pr.In.highest, pr.In.window = 0, 0
		dst, err = pr.In.OpenAppend(dst[:0], pkt)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSealCTR1400(b *testing.B)  { benchSeal(b, keymat.SuiteAESCTRSHA256) }
func BenchmarkSealCBC1400(b *testing.B)  { benchSeal(b, keymat.SuiteAESCBCSHA256) }
func BenchmarkSealNull1400(b *testing.B) { benchSeal(b, keymat.SuiteNullSHA256) }

func BenchmarkSealAppendCTR1400(b *testing.B)  { benchSealAppend(b, keymat.SuiteAESCTRSHA256) }
func BenchmarkSealAppendCBC1400(b *testing.B)  { benchSealAppend(b, keymat.SuiteAESCBCSHA256) }
func BenchmarkSealAppendNull1400(b *testing.B) { benchSealAppend(b, keymat.SuiteNullSHA256) }

func BenchmarkSealAppendGCM128_1400(b *testing.B) { benchSealAppend(b, keymat.SuiteAESGCM128) }

// BenchmarkSealHdrAppendGCM128_1400 is hipudp's per-segment seal: a 19-byte
// mux and stream header on the stack and a 1400-byte payload view, sealed
// into a reused frame. It must read 0 B/op.
func BenchmarkSealHdrAppendGCM128_1400(b *testing.B) {
	pi, _ := pairForBench(b, keymat.SuiteAESGCM128)
	var hdr [19]byte
	payload := bytes.Repeat([]byte{7}, 1400)
	dst := make([]byte, 0, pi.Out.SealedLen(len(hdr)+len(payload)))
	b.SetBytes(int64(len(hdr) + len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = pi.Out.SealHdrAppend(dst[:0], hdr[:], payload)
		if err != nil {
			b.Fatal(err)
		}
	}
}
func BenchmarkSealAppendGCM256_1400(b *testing.B) { benchSealAppend(b, keymat.SuiteAESGCM256) }
func BenchmarkSealAppendChaCha1400(b *testing.B) {
	benchSealAppend(b, keymat.SuiteChaCha20Poly1305)
}

func BenchmarkOpenCTR1400(b *testing.B)  { benchOpen(b, keymat.SuiteAESCTRSHA256) }
func BenchmarkOpenNull1400(b *testing.B) { benchOpen(b, keymat.SuiteNullSHA256) }

func BenchmarkOpenAppendCTR1400(b *testing.B)  { benchOpenAppend(b, keymat.SuiteAESCTRSHA256) }
func BenchmarkOpenAppendNull1400(b *testing.B) { benchOpenAppend(b, keymat.SuiteNullSHA256) }

func BenchmarkOpenAppendGCM128_1400(b *testing.B) { benchOpenAppend(b, keymat.SuiteAESGCM128) }
func BenchmarkOpenAppendChaCha1400(b *testing.B) {
	benchOpenAppend(b, keymat.SuiteChaCha20Poly1305)
}
