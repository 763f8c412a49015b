package tlslite

import (
	"bytes"
	"crypto/ecdh"
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"

	"hipcloud/internal/keymat"
)

// aeadSuites are the modern record protections under test.
var aeadSuites = []keymat.Suite{
	keymat.SuiteAESGCM128, keymat.SuiteAESGCM256, keymat.SuiteChaCha20Poly1305,
}

// modernSuites is a full preference list: AEAD first, legacy fallback.
var modernSuites = []keymat.Suite{
	keymat.SuiteAESGCM128, keymat.SuiteChaCha20Poly1305, keymat.SuiteAESGCM256,
	legacySuite,
}

// tryHandshake runs client and server concurrently and returns both
// results without failing the test, for negative cases.
func tryHandshake(cliCfg, srvCfg Config) (cli, srv *Conn, cerr, serr error) {
	ce, se := pipePair()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		cli, cerr = Client(ce, cliCfg)
		if cerr != nil {
			ce.w.Close()
		}
	}()
	go func() {
		defer wg.Done()
		srv, serr = Server(se, srvCfg)
		if serr != nil {
			se.w.Close()
		}
	}()
	wg.Wait()
	return cli, srv, cerr, serr
}

func TestHandshakeNegotiatesAEAD(t *testing.T) {
	for _, s := range aeadSuites {
		t.Run(s.String(), func(t *testing.T) {
			cli, srv := handshake(t,
				Config{Suites: []keymat.Suite{s}},
				Config{Identity: srvID, Suites: modernSuites})
			if cli.Suite() != s || srv.Suite() != s {
				t.Fatalf("negotiated %v / %v, want %v", cli.Suite(), srv.Suite(), s)
			}
			go func() {
				buf := make([]byte, 64)
				n, err := srv.Read(buf)
				if err != nil {
					return
				}
				srv.Write(buf[:n])
			}()
			cli.Write([]byte("aead echo"))
			buf := make([]byte, 64)
			n, err := cli.Read(buf)
			if err != nil || string(buf[:n]) != "aead echo" {
				t.Fatalf("echo: %q %v", buf[:n], err)
			}
		})
	}
}

// The server's preference order decides: a legacy-first client offer
// cannot steer mutually-AEAD-capable peers onto the legacy suite.
func TestServerPreferenceResistsDowngradeOrdering(t *testing.T) {
	legacyFirst := []keymat.Suite{legacySuite, keymat.SuiteChaCha20Poly1305, keymat.SuiteAESGCM128}
	cli, srv := handshake(t,
		Config{Suites: legacyFirst},
		Config{Identity: srvID, Suites: modernSuites})
	if cli.Suite() != keymat.SuiteAESGCM128 || srv.Suite() != keymat.SuiteAESGCM128 {
		t.Fatalf("negotiated %v / %v, want the server's AEAD head", cli.Suite(), srv.Suite())
	}
}

// Suite-aware peers interoperate with nil-Suites (legacy-format) peers
// in both role combinations, landing on the legacy record layer.
func TestMixedEraInterop(t *testing.T) {
	cli, srv := handshake(t, Config{Suites: modernSuites}, Config{Identity: srvID})
	if cli.Suite() != legacySuite || srv.Suite() != legacySuite {
		t.Fatalf("modern client / legacy server: %v / %v", cli.Suite(), srv.Suite())
	}
	cli2, srv2 := handshake(t, Config{}, Config{Identity: srvID, Suites: modernSuites})
	if cli2.Suite() != legacySuite || srv2.Suite() != legacySuite {
		t.Fatalf("legacy client / modern server: %v / %v", cli2.Suite(), srv2.Suite())
	}
	go srv2.Write([]byte("mixed era")) // data still flows
	buf := make([]byte, 32)
	n, err := cli2.Read(buf)
	if err != nil || string(buf[:n]) != "mixed era" {
		t.Fatalf("%q %v", buf[:n], err)
	}
}

// AEAD-only policies refuse rather than downgrade, in both directions.
func TestAEADOnlyPolicyRefusesLegacyPeer(t *testing.T) {
	aeadOnly := []keymat.Suite{keymat.SuiteAESGCM128, keymat.SuiteChaCha20Poly1305}
	// AEAD-only client, legacy server: the server answers with a legacy
	// ServerHello and the client must abort.
	cli, _, cerr, _ := tryHandshake(Config{Suites: aeadOnly}, Config{Identity: srvID})
	if cli != nil || !errors.Is(cerr, ErrNoSuite) {
		t.Fatalf("AEAD-only client accepted legacy server: conn=%v err=%v", cli, cerr)
	}
	// Legacy client, AEAD-only server: the server finds no common suite.
	_, srv, _, serr := tryHandshake(Config{}, Config{Identity: srvID, Suites: aeadOnly})
	if srv != nil || !errors.Is(serr, ErrNoSuite) {
		t.Fatalf("AEAD-only server accepted legacy client: conn=%v err=%v", srv, serr)
	}
}

// Config.Suites entries without a record-layer mapping are rejected up
// front on both sides.
func TestSuitesValidated(t *testing.T) {
	bad := []keymat.Suite{keymat.SuiteAESCBCSHA256}
	if _, err := Client(&pipeEnd{}, Config{Suites: bad}); !errors.Is(err, ErrNoSuite) {
		t.Fatalf("client accepted CBC in Suites: %v", err)
	}
	if _, err := Server(&pipeEnd{}, Config{Identity: srvID, Suites: bad}); !errors.Is(err, ErrNoSuite) {
		t.Fatalf("server accepted CBC in Suites: %v", err)
	}
}

// A nil-Suites client emits exactly the pre-negotiation ClientHello
// bytes, and a nil-Suites server answers with a ServerHello carrying no
// trailing suite field — the legacy wire is byte-identical.
func TestLegacyWireShapeUnchanged(t *testing.T) {
	clientRand := bytes.Repeat([]byte{0x7C}, 32)
	legacy := msg(msgClientHello, append(append([]byte{}, clientRand...), appendField(nil, nil)...))
	if got := clientHello(&Config{}, clientRand, nil); !bytes.Equal(got, legacy) {
		t.Fatalf("nil-Suites ClientHello diverged from legacy bytes:\n got %x\nwant %x", got, legacy)
	}
	// And against a live nil-Suites server: capture the ServerHello and
	// check nothing follows the signature field.
	ce, se := pipePair()
	go Server(se, Config{Identity: srvID})
	if err := writeRecord(ce, recHandshake, legacy); err != nil {
		t.Fatal(err)
	}
	shRec, err := readRecord(ce, recHandshake)
	if err != nil {
		t.Fatal(err)
	}
	_, body, err := splitMsg(shRec)
	if err != nil {
		t.Fatal(err)
	}
	rest := body[34:]
	for i := 0; i < 3; i++ { // cert, dhPub, sig
		if _, rest, err = takeField(rest); err != nil {
			t.Fatal(err)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("legacy ServerHello carries %d trailing bytes", len(rest))
	}
	ce.w.Close()
}

// A server choice outside the client's offer is rejected before any
// signature verification — negotiation cannot be steered onto a suite
// the client never proposed.
func TestChoiceOutsideOfferRejected(t *testing.T) {
	ce, se := pipePair()
	go func() {
		chRec, err := readRecord(se, recHandshake)
		if err != nil {
			return
		}
		_, chBody, _ := splitMsg(chRec)
		serverRand := bytes.Repeat([]byte{9}, 32)
		priv, _ := ecdh.P256().GenerateKey(bytes.NewReader(bytes.Repeat([]byte{0x5D}, 64)))
		dhPub := priv.PublicKey().Bytes()
		signed := append(append(append([]byte{}, chBody[:32]...), serverRand...), dhPub...)
		sig, _ := srvID.Sign(signed)
		pub := srvID.Public()
		body := append([]byte{}, serverRand...)
		var algB [2]byte
		binary.BigEndian.PutUint16(algB[:], uint16(pub.Alg))
		body = append(body, algB[:]...)
		body = appendField(body, pub.DER)
		body = appendField(body, dhPub)
		body = appendField(body, sig)
		// Choose ChaCha although the client only offered GCM-128.
		body = appendField(body, suitesWire([]keymat.Suite{keymat.SuiteChaCha20Poly1305}))
		writeRecord(se, recHandshake, msg(msgServerHello, body))
	}()
	_, err := Client(ce, Config{Suites: []keymat.Suite{keymat.SuiteAESGCM128}})
	if !errors.Is(err, ErrNoSuite) {
		t.Fatalf("client accepted un-offered suite choice: %v", err)
	}
	ce.w.Close()
}

// stripStream removes the trailing suite-list field from the first
// ClientHello it forwards — a downgrading middlebox. The handshake must
// abort (transcript mismatch), not fall back to legacy.
type stripStream struct {
	Stream
	done bool
}

func (ss *stripStream) Write(b []byte) (int, error) {
	if !ss.done && len(b) > 7 && b[0] == recHandshake && b[3] == msgClientHello {
		ss.done = true
		body := b[7:] // 3-byte record hdr + 4-byte msg hdr
		// rand(32) field(ticket) field(suites): drop the suites field.
		if len(body) > 34 {
			if _, rest, err := takeField(body[32:]); err == nil && len(rest) > 0 {
				keep := len(b) - len(rest)
				nb := append([]byte(nil), b[:keep]...)
				bl := len(nb) - 7
				nb[1], nb[2] = byte((bl+4)>>8), byte(bl+4)
				nb[4], nb[5], nb[6] = byte(bl>>16), byte(bl>>8), byte(bl)
				n, err := ss.Stream.Write(nb)
				if n == len(nb) {
					n = len(b)
				}
				return n, err
			}
		}
	}
	return ss.Stream.Write(b)
}

func TestStrippedOfferAbortsHandshake(t *testing.T) {
	ce, se := pipePair()
	sce := &stripStream{Stream: ce}
	var cerr, serr error
	var cli, srv *Conn
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		cli, cerr = Client(sce, Config{Suites: modernSuites})
		if cerr != nil {
			ce.w.Close()
		}
	}()
	go func() {
		defer wg.Done()
		srv, serr = Server(se, Config{Identity: srvID, Suites: modernSuites})
		if serr != nil {
			se.w.Close()
		}
	}()
	wg.Wait()
	if cli != nil && srv != nil {
		t.Fatalf("handshake survived offer stripping: cli=%v srv=%v", cli.Suite(), srv.Suite())
	}
	if cerr == nil && serr == nil {
		t.Fatal("neither side reported the stripped offer")
	}
}

// Resumption carries the negotiated AEAD suite: the abbreviated
// handshake pays no asymmetric crypto and lands on the original suite.
func TestResumptionCarriesAEADSuite(t *testing.T) {
	costs := Costs{Sign: time.Millisecond, Verify: time.Millisecond,
		DHKeygen: time.Millisecond, DHCompute: time.Millisecond}
	cache := NewSessionCache()
	sessions := NewServerSessions()
	mk := func() (cliCost, srvCost time.Duration, cli, srv *Conn) {
		cliCfg := Config{ServerName: "web1", Cache: cache, Costs: costs,
			Suites: modernSuites, Charge: func(d time.Duration) { cliCost += d }}
		srvCfg := Config{Identity: srvID, Sessions: sessions, Costs: costs,
			Suites: modernSuites, Charge: func(d time.Duration) { srvCost += d }}
		var err1, err2 error
		cli, srv, err1, err2 = tryHandshake(cliCfg, srvCfg)
		if err1 != nil || err2 != nil {
			t.Fatalf("handshake: %v %v", err1, err2)
		}
		return
	}
	c1, s1, cli1, _ := mk()
	if c1 == 0 || s1 == 0 || cli1.Suite() != keymat.SuiteAESGCM128 {
		t.Fatalf("full handshake: cost %v/%v suite %v", c1, s1, cli1.Suite())
	}
	c2, s2, cli2, srv2 := mk()
	if c2 != 0 || s2 != 0 {
		t.Fatalf("resumed handshake paid asymmetric crypto: %v %v", c2, s2)
	}
	if cli2.Suite() != keymat.SuiteAESGCM128 || srv2.Suite() != keymat.SuiteAESGCM128 {
		t.Fatalf("resumed suite %v / %v", cli2.Suite(), srv2.Suite())
	}
	go srv2.Write([]byte("resumed aead"))
	buf := make([]byte, 32)
	n, err := cli2.Read(buf)
	if err != nil || string(buf[:n]) != "resumed aead" {
		t.Fatalf("%q %v", buf[:n], err)
	}
}

// A cached session whose suite the client's current policy forbids is
// not resumed: the connection renegotiates with a full handshake.
func TestResumptionSkippedWhenSuiteForbidden(t *testing.T) {
	start := len(keymat.KeysOutstanding())
	costs := Costs{Sign: time.Millisecond, Verify: time.Millisecond}
	cache := NewSessionCache()
	sessions := NewServerSessions()
	run := func(cliSuites []keymat.Suite) (cliCost time.Duration, cli *Conn) {
		cliCfg := Config{ServerName: "web1", Cache: cache, Costs: costs,
			Suites: cliSuites, Charge: func(d time.Duration) { cliCost += d }}
		srvCfg := Config{Identity: srvID, Sessions: sessions, Costs: costs, Suites: modernSuites}
		var err1, err2 error
		cli, _, err1, err2 = tryHandshake(cliCfg, srvCfg)
		if err1 != nil || err2 != nil {
			t.Fatalf("handshake: %v %v", err1, err2)
		}
		return
	}
	if cost, cli := run(modernSuites); cost == 0 || cli.Suite() != keymat.SuiteAESGCM128 {
		t.Fatalf("prime handshake: cost %v suite %v", cost, cli.Suite())
	}
	// Policy change: ChaCha only. The cached GCM session must not resume.
	cost, cli := run([]keymat.Suite{keymat.SuiteChaCha20Poly1305})
	if cost == 0 {
		t.Fatal("client resumed onto a forbidden suite without a full handshake")
	}
	if cli.Suite() != keymat.SuiteChaCha20Poly1305 {
		t.Fatalf("renegotiated suite %v", cli.Suite())
	}
	// The renegotiated session replaced the cached one, which was wiped,
	// as was the copy the skipped resumption read out.
	cache.Forget("web1")
	if left := keymat.KeysOutstanding(); len(left) != start+sessions.Len() {
		t.Errorf("%d keys outstanding beyond the stored sessions, created at %q", len(left)-start-sessions.Len(), left[min(start, len(left)):])
	}
}

// --- record layer on AEAD suites ---

func TestAEADRecordRoundTrip(t *testing.T) {
	for _, s := range aeadSuites {
		t.Run(s.String(), func(t *testing.T) {
			a, b := connPairSuite(t, s)
			for _, n := range []int{0, 1, 100, maxRecord} {
				in := bytes.Repeat([]byte{byte(n)}, n)
				if _, err := a.Write(in); err != nil {
					t.Fatal(err)
				}
				got := make([]byte, 0, n)
				buf := make([]byte, 4096)
				for len(got) < n {
					rn, err := b.Read(buf)
					if err != nil {
						t.Fatalf("read: %v", err)
					}
					got = append(got, buf[:rn]...)
				}
				if !bytes.Equal(got, in) {
					t.Fatalf("round trip mismatch at len %d", n)
				}
			}
		})
	}
}

func TestAEADRecordTamperRejected(t *testing.T) {
	for _, s := range aeadSuites {
		a, b := connPairSuite(t, s)
		rec := a.sealRecord([]byte("tamper target"))
		rec[3] ^= 0x40
		if _, err := b.openRecordInPlace(rec); err != ErrBadMAC {
			t.Fatalf("%v: tampered record gave %v, want ErrBadMAC", s, err)
		}
	}
}

// Replayed or reordered records fail: the sequence number lives in the
// nonce and AAD, not on the wire.
func TestAEADRecordReplayRejected(t *testing.T) {
	a, b := connPairSuite(t, keymat.SuiteAESGCM128)
	r1 := a.sealRecord([]byte("one"))
	if _, err := b.openRecord(r1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.openRecord(r1); err != ErrBadMAC {
		t.Fatalf("replayed record gave %v, want ErrBadMAC", err)
	}
}

func TestAEADSealRecordAppendZeroAlloc(t *testing.T) {
	for _, s := range aeadSuites {
		a, _ := connPairSuite(t, s)
		plain := bytes.Repeat([]byte{7}, 1400)
		dst := make([]byte, 0, len(plain)+macLen)
		allocs := testing.AllocsPerRun(200, func() {
			dst = a.sealRecordAppend(dst[:0], plain)
		})
		if allocs != 0 {
			t.Errorf("%v: sealRecordAppend allocates %v/op, want 0", s, allocs)
		}
	}
}

func TestAEADOpenRecordInPlaceZeroAlloc(t *testing.T) {
	for _, s := range aeadSuites {
		a, b := connPairSuite(t, s)
		rec := a.sealRecord(bytes.Repeat([]byte{7}, 1400))
		scratch := make([]byte, len(rec))
		allocs := testing.AllocsPerRun(200, func() {
			copy(scratch, rec)
			b.inSeq = 0
			if _, err := b.openRecordInPlace(scratch); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: openRecordInPlace allocates %v/op, want 0", s, allocs)
		}
	}
}

// The record overhead is identical across every suite, keeping the
// paper's HIP-vs-SSL comparisons structural rather than format-driven.
func TestRecordOverheadSuiteIndependent(t *testing.T) {
	for _, s := range append([]keymat.Suite{legacySuite}, aeadSuites...) {
		a, _ := connPairSuite(t, s)
		rec := a.sealRecord(bytes.Repeat([]byte{1}, 100))
		if len(rec) != 100+macLen {
			t.Fatalf("%v: record body %d bytes, want %d", s, len(rec), 100+macLen)
		}
	}
}

func benchRecordSeal(b *testing.B, s keymat.Suite) {
	a, _ := connPairSuite(b, s)
	plain := bytes.Repeat([]byte{7}, 1400)
	dst := make([]byte, 0, len(plain)+macLen)
	b.SetBytes(1400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = a.sealRecordAppend(dst[:0], plain)
	}
}

func BenchmarkRecordSealGCM128_1400(b *testing.B) { benchRecordSeal(b, keymat.SuiteAESGCM128) }
func BenchmarkRecordSealGCM256_1400(b *testing.B) { benchRecordSeal(b, keymat.SuiteAESGCM256) }
func BenchmarkRecordSealChaCha1400(b *testing.B) {
	benchRecordSeal(b, keymat.SuiteChaCha20Poly1305)
}

func BenchmarkRecordOpenGCM128_1400(b *testing.B) {
	a, c := connPairSuite(b, keymat.SuiteAESGCM128)
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
