package hipdns

import (
	"bytes"
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"hipcloud/internal/netsim"
)

var (
	srvAddr = netip.MustParseAddr("10.0.0.1")
	cliAddr = netip.MustParseAddr("10.0.0.2")
	hitX    = netip.MustParseAddr("2001:10::1234")
	rvsAddr = netip.MustParseAddr("198.51.100.9")
)

func world(t *testing.T) (*netsim.Sim, *Server, *Resolver) {
	t.Helper()
	s := netsim.New(1)
	n := netsim.NewNetwork(s)
	a := n.AddNode("ns", 2, 2)
	b := n.AddNode("cli", 2, 2)
	n.Connect(a, srvAddr, b, cliAddr, netsim.Link{Latency: 2 * time.Millisecond})
	srv := NewServer(a)
	res := NewResolver(b, srvAddr)
	return s, srv, res
}

func TestLookupA(t *testing.T) {
	s, srv, res := world(t)
	srv.Set("web1.cloud", Record{Type: TypeA, TTL: time.Minute, Addr: netip.MustParseAddr("10.10.0.5")})
	var got netip.Addr
	var err error
	s.Spawn("q", func(p *netsim.Proc) {
		got, err = res.LookupAddr(p, "web1.cloud")
	})
	s.Run(10 * time.Second)
	s.Shutdown()
	if err != nil || got != netip.MustParseAddr("10.10.0.5") {
		t.Fatalf("lookup: %v %v", got, err)
	}
}

func TestLookupHIPRecord(t *testing.T) {
	s, srv, res := world(t)
	pk := bytes.Repeat([]byte{0xAB}, 91)
	srv.Set("db.cloud", Record{
		Type: TypeHIP, TTL: time.Minute,
		HIP: &HIPRecord{HIT: hitX, Algorithm: 7, PublicKey: pk, RendezvousServers: []netip.Addr{rvsAddr}},
	})
	var got *HIPRecord
	var err error
	s.Spawn("q", func(p *netsim.Proc) {
		got, err = res.LookupHIP(p, "db.cloud")
	})
	s.Run(10 * time.Second)
	s.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	if got.HIT != hitX || got.Algorithm != 7 || !bytes.Equal(got.PublicKey, pk) {
		t.Fatalf("HIP RR mismatch: %+v", got)
	}
	if len(got.RendezvousServers) != 1 || got.RendezvousServers[0] != rvsAddr {
		t.Fatalf("rvs: %v", got.RendezvousServers)
	}
}

func TestNXDomain(t *testing.T) {
	s, _, res := world(t)
	var err error
	s.Spawn("q", func(p *netsim.Proc) {
		_, err = res.Lookup(p, "ghost.cloud", TypeA)
	})
	s.Run(10 * time.Second)
	s.Shutdown()
	if err != ErrNoRecord {
		t.Fatalf("err = %v, want ErrNoRecord", err)
	}
}

func TestCacheHonorsTTL(t *testing.T) {
	s, srv, res := world(t)
	srv.Set("vm.cloud", Record{Type: TypeA, TTL: 2 * time.Second, Addr: netip.MustParseAddr("10.10.0.1")})
	var first, second, third netip.Addr
	s.Spawn("q", func(p *netsim.Proc) {
		first, _ = res.LookupAddr(p, "vm.cloud")
		// Server-side change: resolver must keep serving the cache...
		srv.Set("vm.cloud", Record{Type: TypeA, TTL: 2 * time.Second, Addr: netip.MustParseAddr("10.10.0.2")})
		second, _ = res.LookupAddr(p, "vm.cloud")
		// ...until the short TTL expires (the paper's mobility re-contact).
		p.Sleep(3 * time.Second)
		third, _ = res.LookupAddr(p, "vm.cloud")
	})
	s.Run(30 * time.Second)
	s.Shutdown()
	if first != netip.MustParseAddr("10.10.0.1") || second != first {
		t.Fatalf("cache not used: %v %v", first, second)
	}
	if third != netip.MustParseAddr("10.10.0.2") {
		t.Fatalf("TTL expiry not honored: %v", third)
	}
	if res.CacheHits != 1 {
		t.Fatalf("cache hits = %d", res.CacheHits)
	}
}

func TestRetryOnLoss(t *testing.T) {
	s := netsim.New(3)
	n := netsim.NewNetwork(s)
	a := n.AddNode("ns", 2, 2)
	b := n.AddNode("cli", 2, 2)
	n.Connect(a, srvAddr, b, cliAddr, netsim.Link{Latency: 2 * time.Millisecond, Fault: func(*netsim.Packet) netsim.FaultDecision {
		return netsim.FaultDecision{Drop: s.Rand().Float64() < 0.4}
	}})
	srv := NewServer(a)
	res := NewResolver(b, srvAddr)
	srv.Set("x.cloud", Record{Type: TypeA, TTL: time.Minute, Addr: netip.MustParseAddr("10.0.0.9")})
	ok := 0
	s.Spawn("q", func(p *netsim.Proc) {
		for i := 0; i < 10; i++ {
			res.cache = map[cacheKey]cacheEntry{} // force wire traffic
			if _, err := res.LookupAddr(p, "x.cloud"); err == nil {
				ok++
			}
		}
	})
	s.Run(2 * time.Minute)
	s.Shutdown()
	if ok < 8 {
		t.Fatalf("only %d/10 lookups succeeded at 40%% loss", ok)
	}
}

// TestServeStaleDuringOutage: with the nameserver dark, a lapsed cache
// entry within the stale window is served instead of an error.
func TestServeStaleDuringOutage(t *testing.T) {
	s, srv, res := world(t)
	srv.Set("vm.cloud", Record{Type: TypeA, TTL: time.Second, Addr: netip.MustParseAddr("10.10.0.7")})
	var fresh, staleA netip.Addr
	var staleErr error
	s.Spawn("q", func(p *netsim.Proc) {
		fresh, _ = res.LookupAddr(p, "vm.cloud")
		p.Sleep(2 * time.Second) // TTL lapses
		res.node.Down = true     // server unreachable (our side goes dark)
		staleA, staleErr = res.LookupAddr(p, "vm.cloud")
	})
	s.Run(time.Minute)
	s.Shutdown()
	if fresh != netip.MustParseAddr("10.10.0.7") {
		t.Fatalf("fresh = %v", fresh)
	}
	if staleErr != nil || staleA != fresh {
		t.Fatalf("stale answer = %v, %v; want the lapsed record", staleA, staleErr)
	}
	if res.ServedStale != 1 {
		t.Fatalf("ServedStale = %d", res.ServedStale)
	}
}

// TestServerShedsWithRetryAfter: a loaded server bounds its inflight
// queue and answers overflow with retry-after rather than silence.
func TestServerShedsWithRetryAfter(t *testing.T) {
	s, srv, res := world(t)
	srv.PerQueryCost = 50 * time.Millisecond
	srv.MaxPending = 2
	srv.Set("x.cloud", Record{Type: TypeA, TTL: time.Minute, Addr: netip.MustParseAddr("10.0.0.9")})
	// Blast raw queries to fill the pending queue, then measure a real
	// lookup: it must still complete (after backoff) or serve stale.
	ok := 0
	s.Spawn("blast", func(p *netsim.Proc) {
		for i := 0; i < 20; i++ {
			res.sock.SendTo(res.server, encodeQuery(60000+uint16(i), "x.cloud", TypeA))
		}
	})
	s.Spawn("q", func(p *netsim.Proc) {
		p.Sleep(10 * time.Millisecond)
		if _, err := res.LookupAddr(p, "x.cloud"); err == nil {
			ok++
		}
	})
	s.Run(time.Minute)
	s.Shutdown()
	if srv.Shed == 0 {
		t.Fatal("server shed nothing under a 20-query blast with MaxPending=2")
	}
	if ok != 1 {
		t.Fatal("lookup failed to complete against a shedding server")
	}
}

// TestRetryBudgetBoundsRetries: an empty token bucket suppresses
// retransmissions, so a client cannot amplify an outage.
func TestRetryBudgetBoundsRetries(t *testing.T) {
	s, _, res := world(t)
	res.RetryBudget = 1
	res.RetryPerSec = 0.001 // effectively no refill within the test
	res.StaleFor = -1       // isolate the budget path
	errs := 0
	s.Spawn("q", func(p *netsim.Proc) {
		res.node.Down = true // all queries black-holed
		for i := 0; i < 5; i++ {
			if _, err := res.LookupAddr(p, "x.cloud"); err != nil {
				errs++
			}
		}
	})
	s.Run(2 * time.Minute)
	s.Shutdown()
	if errs != 5 {
		t.Fatalf("errs = %d, want 5", errs)
	}
	// 5 lookups × 2 possible retries each = 10 without a budget; the
	// 1-token bucket admits ~1.
	if res.Retries > 2 {
		t.Fatalf("Retries = %d despite a 1-token budget", res.Retries)
	}
	if res.BudgetDenied == 0 {
		t.Fatal("budget denied nothing")
	}
}

func TestDynamicUpdateReplacesType(t *testing.T) {
	s, srv, res := world(t)
	srv.Set("m.cloud",
		Record{Type: TypeA, TTL: time.Minute, Addr: netip.MustParseAddr("10.0.0.1")},
		Record{Type: TypeHIP, TTL: time.Minute, HIP: &HIPRecord{HIT: hitX, PublicKey: []byte{1}}},
	)
	srv.Set("m.cloud", Record{Type: TypeA, TTL: time.Minute, Addr: netip.MustParseAddr("10.0.0.2")})
	var a netip.Addr
	var hip *HIPRecord
	s.Spawn("q", func(p *netsim.Proc) {
		a, _ = res.LookupAddr(p, "m.cloud")
		hip, _ = res.LookupHIP(p, "m.cloud")
	})
	s.Run(10 * time.Second)
	s.Shutdown()
	if a != netip.MustParseAddr("10.0.0.2") {
		t.Fatalf("A not updated: %v", a)
	}
	if hip == nil || hip.HIT != hitX {
		t.Fatal("HIP RR lost by dynamic A update")
	}
}

// Property: record data encoding round-trips for all types.
func TestRecordCodecProperty(t *testing.T) {
	f := func(pk []byte, a4 [4]byte, a16 [16]byte, nRVS uint8) bool {
		if len(pk) > 512 {
			pk = pk[:512]
		}
		recs := []Record{
			{Type: TypeA, Addr: netip.AddrFrom4(a4)},
			{Type: TypeAAAA, Addr: netip.AddrFrom16(a16)},
		}
		h := &HIPRecord{HIT: hitX, Algorithm: 5, PublicKey: pk}
		for i := 0; i < int(nRVS%4); i++ {
			h.RendezvousServers = append(h.RendezvousServers, rvsAddr)
		}
		recs = append(recs, Record{Type: TypeHIP, HIP: h})
		for _, r := range recs {
			got, err := decodeRecordData(r.Type, encodeRecordData(r))
			if err != nil {
				return false
			}
			switch r.Type {
			case TypeA, TypeAAAA:
				if got.Addr != r.Addr {
					return false
				}
			case TypeHIP:
				if got.HIP.HIT != r.HIP.HIT || !bytes.Equal(got.HIP.PublicKey, pk) ||
					len(got.HIP.RendezvousServers) != len(h.RendezvousServers) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the message parser never panics on arbitrary bytes.
func TestParseMessageNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = parseMessage(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
