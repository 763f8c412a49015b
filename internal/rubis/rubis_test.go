package rubis

import (
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"time"

	"hipcloud/internal/cloud"
	"hipcloud/internal/hip"
	"hipcloud/internal/hipsim"
	"hipcloud/internal/identity"
	"hipcloud/internal/microhttp"
	"hipcloud/internal/netsim"
	"hipcloud/internal/secio"
	"hipcloud/internal/simtcp"
	"hipcloud/internal/workload"
)

func TestPopulateDeterministic(t *testing.T) {
	a := Populate(7, 100, 500)
	b := Populate(7, 100, 500)
	if a.NumItems() != 500 || a.NumUsers() != 100 {
		t.Fatalf("sizes: %d items %d users", a.NumItems(), a.NumUsers())
	}
	ra, _, _ := a.Execute("item 42")
	rb, _, _ := b.Execute("item 42")
	if string(ra) != string(rb) {
		t.Fatal("same seed produced different datasets")
	}
}

func TestQueries(t *testing.T) {
	db := Populate(7, 50, 200)
	for _, q := range []string{"home", "browse 3 0", "item 10", "bids 10", "user 5", "about 5", "search 3 0"} {
		out, cost, err := db.Execute(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if len(out) == 0 && !strings.HasPrefix(q, "bids") {
			t.Fatalf("%q: empty result", q)
		}
		if cost <= 0 {
			t.Fatalf("%q: nonpositive cost", q)
		}
	}
}

func TestSearchCostsMoreThanBrowse(t *testing.T) {
	db := Populate(7, 50, 2000)
	_, cb, _ := db.Execute("browse 3 0")
	_, cs, _ := db.Execute("search 3 0")
	if cs <= cb {
		t.Fatalf("search cost %v should exceed browse cost %v (full scan)", cs, cb)
	}
}

func TestBadQueries(t *testing.T) {
	db := Populate(7, 10, 20)
	for _, q := range []string{"", "drop tables", "item", "item banana", "browse 1", "bid 1 2", "item 99999"} {
		if _, _, err := db.Execute(q); err == nil {
			t.Fatalf("%q accepted", q)
		}
	}
}

func TestPlaceBidUpdatesPrice(t *testing.T) {
	db := Populate(7, 10, 20)
	before := db.items[3].Price
	out, _, err := db.Execute("bid 3 1 99999999")
	if err != nil || !strings.HasPrefix(string(out), "accepted") {
		t.Fatalf("bid: %q %v", out, err)
	}
	if db.items[3].Price != 99999999 || db.items[3].Price == before {
		t.Fatal("price not updated")
	}
	// Low bid rejected without error.
	out, _, _ = db.Execute("bid 3 1 5")
	if !strings.HasPrefix(string(out), "rejected") {
		t.Fatalf("low bid: %q", out)
	}
}

func TestQueryCacheHitsAndInvalidation(t *testing.T) {
	db := Populate(7, 10, 50)
	db.CacheEnabled = true
	_, c1, _ := db.Execute("item 5")
	_, c2, _ := db.Execute("item 5")
	if db.CacheHits != 1 {
		t.Fatalf("cache hits = %d", db.CacheHits)
	}
	if c2 >= c1 {
		t.Fatalf("cached query cost %v not below first %v", c2, c1)
	}
	db.Execute("bid 5 1 99999999")
	_, _, _ = db.Execute("item 5")
	if db.CacheMisses != 2 {
		t.Fatalf("cache not invalidated by write: misses=%d", db.CacheMisses)
	}
	// And the re-read sees the new price.
	out, _, _ := db.Execute("item 5")
	if !strings.Contains(string(out), "99999999") {
		t.Fatal("stale cache after write")
	}
}

func TestRouteToQueries(t *testing.T) {
	cases := map[string]int{
		"/home": 1, "/": 1, "/browse/3/0": 1, "/item/9": 2,
		"/user/1": 1, "/about/1": 1, "/search/2/1": 1,
		"/bid/3/1?amount=500": 2,
	}
	for path, want := range cases {
		qs, status := routeToQueries(path)
		if status != 200 || len(qs) != want {
			t.Fatalf("%s -> %v (%d)", path, qs, status)
		}
	}
	if _, status := routeToQueries("/nonsense"); status != 404 {
		t.Fatal("unknown path not 404")
	}
}

func TestMixPathsAreRoutable(t *testing.T) {
	m := NewMix(1, 200, 50)
	m.WriteFraction = 0.1
	for i := 0; i < 500; i++ {
		path := m.Next()
		if _, status := routeToQueries(path); status != 200 {
			t.Fatalf("mix produced unroutable path %q", path)
		}
	}
}

// threeTier builds client -> web -> db on a simulated EC2 zone under a
// scenario and returns the sim, the client's transport, and the servers.
func threeTier(t *testing.T, kind secio.Kind) (*netsim.Sim, *secio.Transport, netip.Addr, *WebServer) {
	t.Helper()
	s := netsim.New(1)
	n := netsim.NewNetwork(s)
	c := cloud.New(n, cloud.EC2)
	tenant := &cloud.Tenant{Name: "t", VLAN: 1}
	webVM := c.Zones[0].Launch("web1", cloud.Micro, tenant)
	dbVM := c.Zones[0].Launch("db1", cloud.Large, tenant)
	client := c.AttachExternal("client", 8, 8)
	db := Populate(7, 200, 1000)

	var webT, dbT, cliT *secio.Transport
	var dbAddr, webAddr netip.Addr
	switch kind {
	case secio.HIP:
		reg := hipsim.NewRegistry()
		costs := cloud.HIPCosts(true)
		mkHIP := func(node *netsim.Node, id *identity.HostIdentity) *secio.Transport {
			h, err := hip.NewHost(hip.Config{Identity: id, Locator: node.Addr(), Costs: costs})
			if err != nil {
				t.Fatal(err)
			}
			f := hipsim.New(node, h, reg)
			return &secio.Transport{Kind: secio.HIP, Stack: simtcp.NewStack(node, f)}
		}
		webID := identity.MustGenerate(identity.AlgECDSA)
		dbID := identity.MustGenerate(identity.AlgECDSA)
		cliID := identity.MustGenerate(identity.AlgECDSA)
		webT = mkHIP(webVM.Node, webID)
		dbT = mkHIP(dbVM.Node, dbID)
		cliT = mkHIP(client, cliID)
		dbAddr = reg.LSI(dbID.HIT()) // the paper ran over LSIs
		webAddr = webID.HIT()
	case secio.SSL:
		id := identity.MustGenerate(identity.AlgECDSA)
		costs := cloud.TLSCosts(false)
		webT = &secio.Transport{Kind: secio.SSL, Stack: simtcp.NewStack(webVM.Node, simtcp.NewPlainFabric(webVM.Node)), Identity: id, Costs: costs}
		dbT = &secio.Transport{Kind: secio.SSL, Stack: simtcp.NewStack(dbVM.Node, simtcp.NewPlainFabric(dbVM.Node)), Identity: id, Costs: costs}
		cliT = &secio.Transport{Kind: secio.SSL, Stack: simtcp.NewStack(client, simtcp.NewPlainFabric(client)), Costs: costs}
		dbAddr = dbVM.Addr()
		webAddr = webVM.Addr()
	default:
		webT = &secio.Transport{Kind: secio.Basic, Stack: simtcp.NewStack(webVM.Node, simtcp.NewPlainFabric(webVM.Node))}
		dbT = &secio.Transport{Kind: secio.Basic, Stack: simtcp.NewStack(dbVM.Node, simtcp.NewPlainFabric(dbVM.Node))}
		cliT = &secio.Transport{Kind: secio.Basic, Stack: simtcp.NewStack(client, simtcp.NewPlainFabric(client))}
		dbAddr = dbVM.Addr()
		webAddr = webVM.Addr()
	}
	ws := &WebServer{
		Name:      "web1",
		Config:    DefaultWebConfig,
		Transport: webT,
		DB:        NewDBClient(webT, dbAddr, DefaultWebConfig.DBPool),
	}
	s.Spawn("db", (&DBServer{DB: db, Transport: dbT}).Run)
	s.Spawn("web", ws.Run)
	return s, cliT, webAddr, ws
}

func TestThreeTierEndToEnd(t *testing.T) {
	for _, kind := range []secio.Kind{secio.Basic, secio.SSL, secio.HIP} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			s, cliT, webAddr, ws := threeTier(t, kind)
			mix := NewMix(3, 1000, 200)
			w := &workload.ClosedLoop{
				Transport: cliT,
				Target:    webAddr,
				Port:      WebPort,
				Clients:   4,
				Duration:  5 * time.Second,
				NextPath:  mix.Next,
			}
			res := w.Run(s)
			s.Run(20 * time.Second)
			s.Shutdown()
			if res.Completed < 20 {
				t.Fatalf("%v: only %d requests completed (%d errors)", kind, res.Completed, res.Errors)
			}
			if res.Errors > res.Completed/10 {
				t.Fatalf("%v: too many errors: %d vs %d ok", kind, res.Errors, res.Completed)
			}
			if ws.Served == 0 {
				t.Fatalf("%v: web server served nothing", kind)
			}
			if res.Latency.Mean() <= 0 {
				t.Fatalf("%v: no latency samples", kind)
			}
		})
	}
}

func TestSecurityCostsOrdering(t *testing.T) {
	// Same workload; the secured scenarios must complete fewer requests
	// per unit time than basic on identical virtual hardware.
	run := func(kind secio.Kind) float64 {
		s, cliT, webAddr, _ := threeTier(t, kind)
		mix := NewMix(3, 1000, 200)
		w := &workload.ClosedLoop{
			Transport: cliT, Target: webAddr, Port: WebPort,
			Clients: 12, Duration: 10 * time.Second, NextPath: mix.Next,
		}
		res := w.Run(s)
		s.Run(30 * time.Second)
		s.Shutdown()
		return res.Throughput()
	}
	basic := run(secio.Basic)
	ssl := run(secio.SSL)
	hip := run(secio.HIP)
	t.Logf("throughput basic=%.1f ssl=%.1f hip=%.1f req/s", basic, ssl, hip)
	if basic <= ssl || basic <= hip {
		t.Fatalf("basic (%.1f) should beat ssl (%.1f) and hip (%.1f)", basic, ssl, hip)
	}
	// HIP and SSL should be within a factor of two of each other
	// ("comparable" per the paper).
	if hip > 2*ssl || ssl > 2*hip {
		t.Fatalf("hip (%.1f) and ssl (%.1f) not comparable", hip, ssl)
	}
}

func TestSellAndRegister(t *testing.T) {
	db := Populate(7, 10, 50)
	before := db.NumItems()
	out, _, err := db.Execute("sell 3 5 2500")
	if err != nil || !strings.HasPrefix(string(out), "listed") {
		t.Fatalf("sell: %q %v", out, err)
	}
	if db.NumItems() != before+1 {
		t.Fatal("item not created")
	}
	// The new listing is browsable and biddable.
	id := before
	view, _, err := db.Execute("item " + itoaTest(id))
	if err != nil || !strings.Contains(string(view), "2500") {
		t.Fatalf("view new item: %q %v", view, err)
	}
	if _, _, err := db.Execute("bid " + itoaTest(id) + " 1 9999"); err != nil {
		t.Fatalf("bid on new item: %v", err)
	}
	// Register a user and sell as them.
	out, _, err = db.Execute("register newbie")
	if err != nil || !strings.HasPrefix(string(out), "registered") {
		t.Fatalf("register: %q %v", out, err)
	}
	if _, _, err := db.Execute("sell " + itoaTest(db.NumUsers()-1) + " 0 100"); err != nil {
		t.Fatalf("sell as new user: %v", err)
	}
	// Invalid sells rejected.
	for _, q := range []string{"sell 9999 0 100", "sell 0 999 100", "sell 0 0 0"} {
		if _, _, err := db.Execute(q); err == nil {
			t.Fatalf("%q accepted", q)
		}
	}
}

func TestWritesInvalidateCache(t *testing.T) {
	db := Populate(7, 10, 50)
	db.CacheEnabled = true
	db.Execute("home")
	db.Execute("home")
	if db.CacheHits != 1 {
		t.Fatalf("hits = %d", db.CacheHits)
	}
	db.Execute("sell 1 2 500")
	db.Execute("home")
	if db.CacheHits != 1 {
		t.Fatal("sell did not invalidate cache")
	}
	// And the new item shows up in its category listing.
	out, _, _ := db.Execute("home")
	if !strings.Contains(string(out), "category 2") {
		t.Fatalf("home: %q", out)
	}
}

func TestSellRegisterRoutes(t *testing.T) {
	qs, status := routeToQueries("/sell/3/5?price=777")
	if status != 200 || len(qs) != 1 || qs[0] != "sell 3 5 777" {
		t.Fatalf("sell route: %v %d", qs, status)
	}
	qs, status = routeToQueries("/register/alice")
	if status != 200 || qs[0] != "register alice" {
		t.Fatalf("register route: %v %d", qs, status)
	}
}

func itoaTest(v int) string {
	return fmt.Sprintf("%d", v)
}

// TestDBClientDropsBrokenConn: a pool of one whose first connection the
// server resets mid-query must dial afresh for the next query, not hand
// the dead connection out forever.
func TestDBClientDropsBrokenConn(t *testing.T) {
	s := netsim.New(1)
	n := netsim.NewNetwork(s)
	web, dbn := n.AddNode("web", 1, 1), n.AddNode("db", 1, 1)
	n.Connect(web, netip.MustParseAddr("10.0.0.1"), dbn, netip.MustParseAddr("10.0.0.2"), netsim.Link{Latency: time.Millisecond})
	webT := &secio.Transport{Kind: secio.Basic, Stack: simtcp.NewStack(web, simtcp.NewPlainFabric(web))}
	dbT := &secio.Transport{Kind: secio.Basic, Stack: simtcp.NewStack(dbn, simtcp.NewPlainFabric(dbn))}

	l := dbT.MustListen(DBPort)
	s.Spawn("db", func(p *netsim.Proc) {
		for first := true; ; first = false {
			c, err := l.Accept(p, 0)
			if err != nil {
				return
			}
			first := first
			p.Spawn("db-handler", func(hp *netsim.Proc) {
				c.Rebind(hp)
				for {
					if _, err := readFrame(c, nil); err != nil {
						return
					}
					if first {
						c.Abort() // the server dies under the first query
						return
					}
					if writeFrame(c, []byte{0, 0, 0, 0, 0, 'o', 'k'}) != nil { // length, status, payload
						return
					}
				}
			})
		}
	})
	client := NewDBClient(webT, dbn.Addr(), 1)
	var errs [3]error
	s.Spawn("web", func(p *netsim.Proc) {
		for i := range errs {
			_, errs[i] = client.Query(p, nil, "home")
			p.Sleep(100 * time.Millisecond)
		}
	})
	s.Run(10 * time.Second)
	s.Shutdown()
	if errs[0] == nil {
		t.Fatal("query on the reset connection succeeded; the test did not break it")
	}
	if errs[1] != nil || errs[2] != nil {
		t.Fatalf("queries after the reset: %v, %v; want both to succeed on a fresh connection", errs[1], errs[2])
	}
}

// TestHandleReusesItsPage: the web tier renders each page in the array of
// the one before, so once warm a request for a page of the same size
// moves no page bytes to a new array and allocates only the route's and
// the query's strings.
func TestHandleReusesItsPage(t *testing.T) {
	s := netsim.New(1)
	n := netsim.NewNetwork(s)
	web, dbn := n.AddNode("web", 1, 1), n.AddNode("db", 1, 1)
	n.Connect(web, netip.MustParseAddr("10.0.0.1"), dbn, netip.MustParseAddr("10.0.0.2"), netsim.Link{Latency: time.Millisecond})
	webT := &secio.Transport{Kind: secio.Basic, Stack: simtcp.NewStack(web, simtcp.NewPlainFabric(web))}
	dbT := &secio.Transport{Kind: secio.Basic, Stack: simtcp.NewStack(dbn, simtcp.NewPlainFabric(dbn))}
	s.Spawn("db", (&DBServer{DB: Populate(1, 100, 400), Transport: dbT}).Run)
	w := &WebServer{Name: "web", Config: DefaultWebConfig, Transport: webT, DB: NewDBClient(webT, dbn.Addr(), 1)}
	start := netsim.NewWaitQueue(s)
	req := microhttp.Request{Method: "GET", Path: "/item/7"}
	var page []byte
	moved := 0
	s.Spawn("handler", func(p *netsim.Proc) {
		for {
			start.Wait(p, 0)
			status, body := w.handle(p, &req, page)
			if status != 200 {
				t.Errorf("status %d: %s", status, body)
			}
			if page != nil && &body[0] != &page[0] {
				moved++
			}
			page = body
		}
	})
	round := func() {
		start.WakeAll()
		s.Run(0)
	}
	round()
	allocs := testing.AllocsPerRun(20, round)
	s.Shutdown()
	if moved != 0 || len(page) < DefaultWebConfig.HTMLOverhead {
		t.Fatalf("%d of 21 pages moved to a new array; the last holds %d B", moved, len(page))
	}
	// routeToQueries: the split path, the query list and two query
	// strings; the DB server: each query frame as a string.
	if allocs > 6 && !raceBuild {
		t.Fatalf("a warm request allocated %.1f times, want at most 6", allocs)
	}
}

// raceBuild is set in race builds (race_test.go).
var raceBuild bool
