package tlslite

import (
	"io"
	"sync"
	"testing"
	"time"

	"hipcloud/internal/keymat"
)

// resumingHandshake runs one handshake with the given shared caches.
func resumingHandshake(t *testing.T, cache *SessionCache, sessions *ServerSessions, costs Costs, cliCost, srvCost *time.Duration) (*Conn, *Conn) {
	t.Helper()
	cliCfg := Config{
		ServerName: "web1", Cache: cache, Costs: costs,
		Charge: func(d time.Duration) { *cliCost += d },
	}
	srvCfg := Config{
		Identity: srvID, Sessions: sessions, Costs: costs,
		Charge: func(d time.Duration) { *srvCost += d },
	}
	ce, se := pipePair()
	var cli, srv *Conn
	var cerr, serr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); cli, cerr = Client(ce, cliCfg) }()
	go func() { defer wg.Done(); srv, serr = Server(se, srvCfg) }()
	wg.Wait()
	if cerr != nil || serr != nil {
		t.Fatalf("handshake: client=%v server=%v", cerr, serr)
	}
	return cli, srv
}

func TestResumptionSkipsAsymmetricCrypto(t *testing.T) {
	costs := Costs{
		Sign: 10 * time.Millisecond, Verify: 5 * time.Millisecond,
		DHKeygen: 5 * time.Millisecond, DHCompute: 5 * time.Millisecond,
	}
	cache := NewSessionCache()
	sessions := NewServerSessions()

	var c1, s1 time.Duration
	cli, srv := resumingHandshake(t, cache, sessions, costs, &c1, &s1)
	if c1 < costs.Verify || s1 < costs.Sign {
		t.Fatalf("full handshake costs too low: cli=%v srv=%v", c1, s1)
	}
	if sessions.Len() != 1 {
		t.Fatalf("server stored %d sessions", sessions.Len())
	}
	// Second connection resumes: no Sign/Verify/DH at all.
	var c2, s2 time.Duration
	cli2, srv2 := resumingHandshake(t, cache, sessions, costs, &c2, &s2)
	if c2 != 0 || s2 != 0 {
		t.Fatalf("resumed handshake paid asymmetric crypto: cli=%v srv=%v", c2, s2)
	}
	// Resumed channel carries data.
	go srv2.Read(make([]byte, 64))
	if _, err := cli2.Write([]byte("resumed")); err != nil {
		t.Fatal(err)
	}
	// Independent: the first channel still works too.
	go srv.Read(make([]byte, 64))
	if _, err := cli.Write([]byte("original")); err != nil {
		t.Fatal(err)
	}
}

func TestResumptionFreshKeysPerSession(t *testing.T) {
	cache := NewSessionCache()
	sessions := NewServerSessions()
	var d time.Duration
	cli1, _ := resumingHandshake(t, cache, sessions, Costs{}, &d, &d)
	cli2, _ := resumingHandshake(t, cache, sessions, Costs{}, &d, &d)
	// Same master secret, fresh randoms: record keys must differ — a
	// record from session 2 cannot authenticate under session 1's keys.
	rec2 := cli2.sealRecord([]byte("cross-session replay"))
	if _, err := cli1.openRecord(rec2); err == nil {
		t.Fatal("record sealed in resumed session decrypts under old keys")
	}
}

func TestUnknownTicketFallsBackToFullHandshake(t *testing.T) {
	cache := NewSessionCache()
	// Poison the cache with a ticket the server never issued.
	cache.put("web1", []byte("bogus-ticket-000"), make([]byte, 32), legacySuite)
	sessions := NewServerSessions()
	var c, s time.Duration
	costs := Costs{Sign: time.Millisecond, Verify: time.Millisecond}
	cli, srv := resumingHandshake(t, cache, sessions, costs, &c, &s)
	if c == 0 || s == 0 {
		t.Fatal("fallback did not run the full handshake")
	}
	// The bogus entry was replaced by a fresh valid one.
	sess, ok := cache.get("web1")
	if !ok || string(sess.ticket) == "bogus-ticket-000" {
		t.Fatal("cache not refreshed after fallback")
	}
	go srv.Read(make([]byte, 16))
	if _, err := cli.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}
}

func TestNoCacheNoTicketStored(t *testing.T) {
	sessions := NewServerSessions()
	ce, se := pipePair()
	var wg sync.WaitGroup
	wg.Add(2)
	var cerr, serr error
	go func() { defer wg.Done(); _, cerr = Client(ce, Config{}) }()
	go func() { defer wg.Done(); _, serr = Server(se, Config{Identity: srvID, Sessions: sessions}) }()
	wg.Wait()
	if cerr != nil || serr != nil {
		t.Fatalf("handshake: %v %v", cerr, serr)
	}
	// Ticket was issued and stored server-side; a cacheless client just
	// ignores it. (Server-side storage is bounded by Cap.)
	if sessions.Len() != 1 {
		t.Fatalf("sessions = %d", sessions.Len())
	}
}

// closePair closes both ends of an in-memory channel, draining each pipe
// so that neither close alert blocks.
func closePair(cli, srv *Conn) {
	ce, se := cli.stream.(*pipeEnd), srv.stream.(*pipeEnd)
	go io.Copy(io.Discard, ce.r)
	go io.Copy(io.Discard, se.r)
	cli.Close()
	srv.Close()
	ce.w.Close()
	se.w.Close()
}

// TestHandshakesWipeTheirSecrets: a full handshake and then a resumed one
// leave no key behind but the secrets the session stores still hold. The
// ECDH secret, the cache's copies and the copies a resumption reads out
// of either store are all wiped.
func TestHandshakesWipeTheirSecrets(t *testing.T) {
	start := len(keymat.KeysOutstanding())
	cache, sessions := NewSessionCache(), NewServerSessions()
	costs := Costs{DHCompute: time.Millisecond}
	for _, resumed := range []bool{false, true} {
		var c, s time.Duration
		cli, srv := resumingHandshake(t, cache, sessions, costs, &c, &s)
		if (c == 0) != resumed {
			t.Fatalf("resumed=%v, but the client paid %v for ECDH", resumed, c)
		}
		closePair(cli, srv)
	}
	cache.Forget("web1")
	if n := sessions.Len(); n != 1 {
		t.Fatalf("server stores %d sessions, want 1", n)
	}
	if left := keymat.KeysOutstanding(); len(left) != start+1 {
		t.Errorf("%d keys outstanding beyond the stored session, created at %q", len(left)-start-1, left[min(start, len(left)):])
	}
}

func TestServerSessionsCapBound(t *testing.T) {
	start := len(keymat.KeysOutstanding())
	s := NewServerSessions()
	s.Cap = 8
	for i := 0; i < 50; i++ {
		s.put([]byte{byte(i)}, []byte("secret"), legacySuite)
	}
	if s.Len() > 8 {
		t.Fatalf("store grew to %d, cap 8", s.Len())
	}
	if n := len(keymat.KeysOutstanding()) - start; n != s.Len() {
		t.Fatalf("%d secrets outstanding for %d stored sessions: an evicted one was not wiped", n, s.Len())
	}
}

func BenchmarkFullHandshake(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ce, se := pipePair()
		var wg sync.WaitGroup
		wg.Add(2)
		var cerr, serr error
		go func() { defer wg.Done(); _, cerr = Client(ce, Config{}) }()
		go func() { defer wg.Done(); _, serr = Server(se, Config{Identity: srvID}) }()
		wg.Wait()
		if cerr != nil || serr != nil {
			b.Fatalf("%v %v", cerr, serr)
		}
	}
}

func BenchmarkResumedHandshake(b *testing.B) {
	cache := NewSessionCache()
	sessions := NewServerSessions()
	// Prime with one full handshake.
	prime := func() {
		ce, se := pipePair()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); Client(ce, Config{ServerName: "s", Cache: cache}) }()
		go func() { defer wg.Done(); Server(se, Config{Identity: srvID, Sessions: sessions}) }()
		wg.Wait()
	}
	prime()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ce, se := pipePair()
		var wg sync.WaitGroup
		wg.Add(2)
		var cerr, serr error
		go func() { defer wg.Done(); _, cerr = Client(ce, Config{ServerName: "s", Cache: cache}) }()
		go func() { defer wg.Done(); _, serr = Server(se, Config{Identity: srvID, Sessions: sessions}) }()
		wg.Wait()
		if cerr != nil || serr != nil {
			b.Fatalf("%v %v", cerr, serr)
		}
	}
}
