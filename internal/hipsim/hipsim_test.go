package hipsim

import (
	"bytes"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"hipcloud/internal/hip"
	"hipcloud/internal/identity"
	"hipcloud/internal/netsim"
	"hipcloud/internal/simtcp"
)

var (
	idA = identity.MustGenerate(identity.AlgECDSA)
	idB = identity.MustGenerate(identity.AlgECDSA)
)

var (
	addrA  = netip.MustParseAddr("10.0.0.1")
	addrB  = netip.MustParseAddr("10.0.0.2")
	addrB2 = netip.MustParseAddr("10.0.0.22")
)

type world struct {
	sim *netsim.Sim
	net *netsim.Network
	reg *Registry
	fa  *Fabric
	fb  *Fabric
	sa  *simtcp.Stack
	sb  *simtcp.Stack
	na  *netsim.Node
	nb  *netsim.Node
}

func buildWorld(t *testing.T, costs hip.CostModel, link netsim.Link) *world {
	t.Helper()
	s := netsim.New(1)
	n := netsim.NewNetwork(s)
	a := n.AddNode("a", 2, 1)
	b := n.AddNode("b", 2, 1)
	n.Connect(a, addrA, b, addrB, link)
	reg := NewRegistry()
	ha, err := hip.NewHost(hip.Config{Identity: idA, Locator: addrA, Costs: costs})
	if err != nil {
		t.Fatal(err)
	}
	hb, err := hip.NewHost(hip.Config{Identity: idB, Locator: addrB, Costs: costs})
	if err != nil {
		t.Fatal(err)
	}
	fa := New(a, ha, reg)
	fb := New(b, hb, reg)
	return &world{
		sim: s, net: n, reg: reg, fa: fa, fb: fb,
		sa: simtcp.NewStack(a, fa), sb: simtcp.NewStack(b, fb),
		na: a, nb: b,
	}
}

func TestHIPStreamEcho(t *testing.T) {
	w := buildWorld(t, hip.CostModel{}, netsim.Link{Latency: time.Millisecond})
	l := w.sb.MustListen(80)
	w.sim.Spawn("server", func(p *netsim.Proc) {
		c, err := l.Accept(p, 0)
		if err != nil {
			return
		}
		buf := make([]byte, 64)
		n, err := c.Read(p, buf)
		if err != nil {
			return
		}
		c.Write(p, buf[:n])
		c.Close()
	})
	var got []byte
	var dialErr error
	w.sim.Spawn("client", func(p *netsim.Proc) {
		c, err := w.sa.Dial(p, idB.HIT(), 80, 10*time.Second)
		if err != nil {
			dialErr = err
			return
		}
		c.Write(p, []byte("over hip"))
		buf := make([]byte, 64)
		n, err := c.Read(p, buf)
		if err == nil {
			got = buf[:n]
		}
		c.Close()
	})
	w.sim.Run(time.Minute)
	w.sim.Shutdown()
	if dialErr != nil {
		t.Fatalf("dial: %v", dialErr)
	}
	if string(got) != "over hip" {
		t.Fatalf("got %q", got)
	}
	// The association exists on both sides.
	if _, ok := w.fa.Host().Association(idB.HIT()); !ok {
		t.Fatal("no association on initiator")
	}
}

// TestESPStreamReturnsEveryBuffer checks the pool's balance across a
// loss-free stream over ESP plus one ping: every wire segment, ESP packet
// and decrypt buffer taken from the pool is back in it, whole, once the
// run is over.
func TestESPStreamReturnsEveryBuffer(t *testing.T) {
	const total = 1 << 20
	start := netsim.PoolOutstanding()
	w := buildWorld(t, hip.CostModel{}, netsim.Link{Latency: time.Millisecond})
	l := w.sb.MustListen(80)
	rcvd := 0
	w.sim.Spawn("sink", func(p *netsim.Proc) {
		c, err := l.Accept(p, 0)
		if err != nil {
			return
		}
		buf := make([]byte, 64*1024)
		for {
			n, err := c.Read(p, buf)
			rcvd += n
			if err != nil {
				break
			}
		}
		c.Close()
	})
	w.sim.Spawn("source", func(p *netsim.Proc) {
		c, err := w.sa.Dial(p, idB.HIT(), 80, 10*time.Second)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		chunk := make([]byte, 32*1024)
		for sent := 0; sent < total; sent += len(chunk) {
			if _, err := c.Write(p, chunk); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
		c.Close()
		if _, err := w.fa.Ping(p, idB.HIT(), 64, 5*time.Second); err != nil {
			t.Errorf("ping: %v", err)
		}
	})
	w.sim.Run(time.Minute)
	w.sim.Shutdown()
	if rcvd != total {
		t.Fatalf("received %d of %d", rcvd, total)
	}
	if n := netsim.PoolOutstanding() - start; n != 0 {
		t.Fatalf("%d pooled buffers not returned whole after the stream", n)
	}
}

func TestHIPDialByLSI(t *testing.T) {
	w := buildWorld(t, hip.CostModel{}, netsim.Link{Latency: time.Millisecond})
	lsi := w.reg.LSI(idB.HIT())
	if !identity.IsLSI(lsi) {
		t.Fatalf("lsi = %v", lsi)
	}
	l := w.sb.MustListen(80)
	w.sim.Spawn("server", func(p *netsim.Proc) {
		c, err := l.Accept(p, 0)
		if err != nil {
			return
		}
		buf := make([]byte, 64)
		n, _ := c.Read(p, buf)
		c.Write(p, buf[:n])
		c.Close()
	})
	var got []byte
	w.sim.Spawn("client", func(p *netsim.Proc) {
		c, err := w.sa.Dial(p, lsi, 80, 10*time.Second)
		if err != nil {
			return
		}
		c.Write(p, []byte("via lsi"))
		buf := make([]byte, 64)
		n, err := c.Read(p, buf)
		if err == nil {
			got = buf[:n]
		}
		c.Close()
	})
	w.sim.Run(time.Minute)
	w.sim.Shutdown()
	if string(got) != "via lsi" {
		t.Fatalf("got %q", got)
	}
}

func TestLSICostsMoreThanHIT(t *testing.T) {
	costs := hip.CostModel{
		SymmetricNsPerByte: 20,
		ShimPerPacket:      2 * time.Microsecond,
		LSITranslation:     30 * time.Microsecond,
	}
	run := func(peer func(w *world) netip.Addr) time.Duration {
		w := buildWorld(t, costs, netsim.Link{Latency: time.Millisecond, Bandwidth: 100e6})
		l := w.sb.MustListen(80)
		w.sim.Spawn("server", func(p *netsim.Proc) {
			c, err := l.Accept(p, 0)
			if err != nil {
				return
			}
			buf := make([]byte, 32*1024)
			for {
				if _, err := c.Read(p, buf); err != nil {
					return
				}
			}
		})
		w.sim.Spawn("client", func(p *netsim.Proc) {
			c, err := w.sa.Dial(p, peer(w), 80, 10*time.Second)
			if err != nil {
				return
			}
			c.Write(p, make([]byte, 256*1024))
			c.Close()
		})
		w.sim.Run(time.Minute)
		busy := w.na.CPU().BusyTime()
		w.sim.Shutdown()
		return busy
	}
	hitBusy := run(func(w *world) netip.Addr { return idB.HIT() })
	lsiBusy := run(func(w *world) netip.Addr { return w.reg.LSI(idB.HIT()) })
	if lsiBusy <= hitBusy {
		t.Fatalf("LSI CPU %v not above HIT CPU %v", lsiBusy, hitBusy)
	}
}

func TestHIPPingRTT(t *testing.T) {
	w := buildWorld(t, hip.CostModel{}, netsim.Link{Latency: 2 * time.Millisecond})
	var rtt time.Duration
	var err error
	w.sim.Spawn("pinger", func(p *netsim.Proc) {
		rtt, err = w.fa.Ping(p, idB.HIT(), 64, 5*time.Second)
	})
	w.sim.Run(30 * time.Second)
	w.sim.Shutdown()
	if err != nil {
		t.Fatalf("ping: %v", err)
	}
	if rtt < 4*time.Millisecond || rtt > 6*time.Millisecond {
		t.Fatalf("rtt = %v, want ≈4ms", rtt)
	}
}

func TestEstablishUnknownPeer(t *testing.T) {
	w := buildWorld(t, hip.CostModel{}, netsim.Link{})
	var err error
	w.sim.Spawn("client", func(p *netsim.Proc) {
		err = w.fa.Establish(p, netip.MustParseAddr("2001:10::dead"))
	})
	w.sim.Run(time.Second)
	w.sim.Shutdown()
	if err != ErrUnknownPeer {
		t.Fatalf("err = %v, want ErrUnknownPeer", err)
	}
}

func TestBEXChargesCPU(t *testing.T) {
	costs := hip.CostModel{
		Sign: 2 * time.Millisecond, Verify: time.Millisecond,
		DHCompute: 3 * time.Millisecond, DHKeygen: 2 * time.Millisecond,
		HashOp: time.Microsecond,
	}
	w := buildWorld(t, costs, netsim.Link{Latency: time.Millisecond})
	w.sim.Spawn("client", func(p *netsim.Proc) {
		if err := w.fa.Establish(p, idB.HIT()); err != nil {
			t.Errorf("establish: %v", err)
		}
	})
	w.sim.Run(time.Minute)
	w.sim.Shutdown()
	if w.na.CPU().BusyTime() < costs.DHCompute {
		t.Fatalf("initiator CPU busy %v, expected BEX costs charged", w.na.CPU().BusyTime())
	}
	if w.nb.CPU().BusyTime() < costs.DHCompute {
		t.Fatalf("responder CPU busy %v, expected BEX costs charged", w.nb.CPU().BusyTime())
	}
}

func TestMigrationKeepsConnection(t *testing.T) {
	// B is multihomed; after BEX it moves to its second address and the
	// stream keeps flowing.
	s := netsim.New(1)
	n := netsim.NewNetwork(s)
	a := n.AddNode("a", 2, 1)
	b := n.AddNode("b", 2, 1)
	r := n.AddRouter("r")
	n.Connect(a, addrA, r, netip.MustParseAddr("10.0.0.254"), netsim.Link{Latency: time.Millisecond})
	n.Connect(r, netip.MustParseAddr("10.0.1.254"), b, addrB, netsim.Link{Latency: time.Millisecond})
	n.Connect(r, netip.MustParseAddr("10.0.2.254"), b, addrB2, netsim.Link{Latency: time.Millisecond})
	a.AddDefaultRoute(netip.MustParseAddr("10.0.0.254"))
	b.AddDefaultRoute(netip.MustParseAddr("10.0.1.254"))
	r.AddRoute(netip.MustParsePrefix("10.0.0.0/24"), addrA)
	// r reaches b's addresses directly (host routes installed by Connect).

	reg := NewRegistry()
	ha, _ := hip.NewHost(hip.Config{Identity: idA, Locator: addrA})
	hb, _ := hip.NewHost(hip.Config{Identity: idB, Locator: addrB})
	fa := New(a, ha, reg)
	fb := New(b, hb, reg)
	sa := simtcp.NewStack(a, fa)
	sb := simtcp.NewStack(b, fb)

	l := sb.MustListen(80)
	var rounds int
	s.Spawn("server", func(p *netsim.Proc) {
		c, err := l.Accept(p, 0)
		if err != nil {
			return
		}
		buf := make([]byte, 64)
		for {
			n, err := c.Read(p, buf)
			if err != nil {
				return
			}
			if _, err := c.Write(p, buf[:n]); err != nil {
				return
			}
		}
	})
	var migrated bool
	s.Spawn("client", func(p *netsim.Proc) {
		c, err := sa.Dial(p, idB.HIT(), 80, 10*time.Second)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		buf := make([]byte, 64)
		for i := 0; i < 10; i++ {
			msg := []byte{byte('0' + i)}
			if _, err := c.Write(p, msg); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
			n, err := c.Read(p, buf)
			if err != nil || !bytes.Equal(buf[:n], msg) {
				t.Errorf("round %d failed: %q %v", i, buf[:n], err)
				return
			}
			rounds++
			if i == 4 {
				// Migrate B mid-stream.
				fb.MoveTo(addrB2)
				p.Sleep(100 * time.Millisecond) // let UPDATE handshake settle
				migrated = true
			}
		}
		c.Close()
	})
	s.Run(time.Minute)
	s.Shutdown()
	if !migrated || rounds != 10 {
		t.Fatalf("rounds = %d (migrated=%v), want 10 across migration", rounds, migrated)
	}
	// The initiator must now address the new locator.
	if assoc, ok := ha.Association(idB.HIT()); !ok || assoc.PeerLocator != addrB2 {
		t.Fatalf("peer locator not updated: %+v", assoc)
	}
}

func TestDialSurfacesGiveUpUnderTotalLoss(t *testing.T) {
	// 100% loss: every I1 retransmission vanishes. After the host's 4
	// retries it abandons the association and fires EventFailed; a Dial
	// blocked in Establish must surface that as ErrBEXFailed promptly
	// rather than hanging until its own BEXTimeout. RetransmitBase 20ms
	// puts the give-up at 16×20ms = 320ms, far from the 10s timeout.
	s := netsim.New(1)
	n := netsim.NewNetwork(s)
	a := n.AddNode("a", 2, 1)
	b := n.AddNode("b", 2, 1)
	n.Connect(a, addrA, b, addrB, netsim.Link{Latency: time.Millisecond, Down: true})
	reg := NewRegistry()
	ha, _ := hip.NewHost(hip.Config{Identity: idA, Locator: addrA, RetransmitBase: 20 * time.Millisecond})
	hb, _ := hip.NewHost(hip.Config{Identity: idB, Locator: addrB})
	fa := New(a, ha, reg)
	New(b, hb, reg)
	sa := simtcp.NewStack(a, fa)

	var dialErr error
	var failedAt netsim.VTime
	s.Spawn("client", func(p *netsim.Proc) {
		_, dialErr = sa.Dial(p, idB.HIT(), 80, 10*time.Second)
		failedAt = p.Now()
	})
	s.Run(time.Minute)
	s.Shutdown()
	if dialErr != ErrBEXFailed {
		t.Fatalf("dial err = %v, want ErrBEXFailed", dialErr)
	}
	if failedAt >= fa.BEXTimeout {
		t.Fatalf("dial failed only at %v, not before BEXTimeout %v (hung to its own timeout)", failedAt, fa.BEXTimeout)
	}
	if failedAt > 2*time.Second {
		t.Fatalf("dial failed at %v, want ≲620ms (the host's give-up point)", failedAt)
	}
	if _, alive := ha.Association(idB.HIT()); alive {
		t.Fatal("abandoned association still present")
	}
}

func TestDialGiveUpBeatsBEXTimeoutWithDefaults(t *testing.T) {
	// Same scenario with the DEFAULT retransmission schedule: the host's
	// give-up (16×500ms = 8s) must land strictly before the fabric's 10s
	// BEXTimeout, so the caller learns the real failure mode. Before the
	// schedule fix the give-up sat at 15.5s and every total-loss Dial
	// surfaced a generic timeout instead.
	s := netsim.New(1)
	n := netsim.NewNetwork(s)
	a := n.AddNode("a", 2, 1)
	b := n.AddNode("b", 2, 1)
	n.Connect(a, addrA, b, addrB, netsim.Link{Latency: time.Millisecond, Down: true})
	reg := NewRegistry()
	ha, _ := hip.NewHost(hip.Config{Identity: idA, Locator: addrA})
	hb, _ := hip.NewHost(hip.Config{Identity: idB, Locator: addrB})
	fa := New(a, ha, reg)
	New(b, hb, reg)
	sa := simtcp.NewStack(a, fa)

	var dialErr error
	var failedAt netsim.VTime
	s.Spawn("client", func(p *netsim.Proc) {
		_, dialErr = sa.Dial(p, idB.HIT(), 80, 30*time.Second)
		failedAt = p.Now()
	})
	s.Run(time.Minute)
	s.Shutdown()
	if dialErr != ErrBEXFailed {
		t.Fatalf("dial err = %v at %v, want ErrBEXFailed", dialErr, failedAt)
	}
	if failedAt >= fa.BEXTimeout {
		t.Fatalf("give-up at %v is not before BEXTimeout %v", failedAt, fa.BEXTimeout)
	}
}

func TestRegistryResolve(t *testing.T) {
	reg := NewRegistry()
	lsi := reg.Register(idA.HIT(), addrA)
	hit, loc, byLSI, err := reg.Resolve(idA.HIT())
	if err != nil || hit != idA.HIT() || loc != addrA || byLSI {
		t.Fatalf("resolve HIT: %v %v %v %v", hit, loc, byLSI, err)
	}
	hit, loc, byLSI, err = reg.Resolve(lsi)
	if err != nil || hit != idA.HIT() || loc != addrA || !byLSI {
		t.Fatalf("resolve LSI: %v %v %v %v", hit, loc, byLSI, err)
	}
	if _, _, _, err := reg.Resolve(netip.MustParseAddr("192.0.2.1")); err != ErrUnknownPeer {
		t.Fatalf("non-identifier resolve err = %v", err)
	}
	if _, _, _, err := reg.Resolve(netip.MustParseAddr("1.9.9.9")); err != ErrUnknownPeer {
		t.Fatalf("unknown LSI resolve err = %v", err)
	}
}

func TestIPv4ToIPv6Handover(t *testing.T) {
	// The paper (§IV-C): "HIP ... supports IPv4-IPv6 handovers" — the
	// association survives the peer rehoming from an IPv4 locator to an
	// IPv6 one, because transport state binds to HITs, not addresses.
	s := netsim.New(1)
	n := netsim.NewNetwork(s)
	a := n.AddNode("a", 2, 1)
	b := n.AddNode("b", 2, 1)
	r := n.AddRouter("r")
	v4a := netip.MustParseAddr("10.0.1.1")
	v4b := netip.MustParseAddr("10.0.2.1")
	v6b := netip.MustParseAddr("2001:db8::b")
	n.Connect(a, v4a, r, netip.MustParseAddr("10.0.1.254"), netsim.Link{Latency: time.Millisecond})
	n.Connect(r, netip.MustParseAddr("10.0.2.254"), b, v4b, netsim.Link{Latency: time.Millisecond})
	n.Connect(r, netip.MustParseAddr("2001:db8::254"), b, v6b, netsim.Link{Latency: time.Millisecond})
	a.AddDefaultRoute(netip.MustParseAddr("10.0.1.254"))
	b.AddDefaultRoute(netip.MustParseAddr("10.0.2.254"))
	r.AddRoute(netip.MustParsePrefix("10.0.1.0/24"), v4a)

	reg := NewRegistry()
	ha, _ := hip.NewHost(hip.Config{Identity: idA, Locator: v4a})
	hb, _ := hip.NewHost(hip.Config{Identity: idB, Locator: v4b})
	fa := New(a, ha, reg)
	fb := New(b, hb, reg)
	sa := simtcp.NewStack(a, fa)
	sb := simtcp.NewStack(b, fb)

	l := sb.MustListen(80)
	s.Spawn("server", func(p *netsim.Proc) {
		c, err := l.Accept(p, 0)
		if err != nil {
			return
		}
		buf := make([]byte, 64)
		for {
			n, err := c.Read(p, buf)
			if err != nil {
				return
			}
			if _, err := c.Write(p, buf[:n]); err != nil {
				return
			}
		}
	})
	var ok int
	s.Spawn("client", func(p *netsim.Proc) {
		c, err := sa.Dial(p, idB.HIT(), 80, 10*time.Second)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		buf := make([]byte, 64)
		echo := func(msg string) bool {
			if _, err := c.Write(p, []byte(msg)); err != nil {
				return false
			}
			n, err := c.Read(p, buf)
			return err == nil && string(buf[:n]) == msg
		}
		if echo("over v4") {
			ok++
		}
		// B hands over to its IPv6 locator mid-connection.
		fb.MoveTo(v6b)
		p.Sleep(200 * time.Millisecond)
		if echo("over v6") {
			ok++
		}
		c.Close()
	})
	s.Run(time.Minute)
	s.Shutdown()
	if ok != 2 {
		t.Fatalf("echo rounds = %d, want 2 (one per address family)", ok)
	}
	if assoc, found := ha.Association(idB.HIT()); !found || !assoc.PeerLocator.Is6() {
		t.Fatalf("peer locator did not move to IPv6: %+v", assoc)
	}
}

func TestAutomaticRekeyDuringLiveTraffic(t *testing.T) {
	// A low rekey threshold makes the kernel rotate SAs mid-stream; the
	// application-level echo loop must never notice.
	s := netsim.New(1)
	n := netsim.NewNetwork(s)
	a := n.AddNode("a", 2, 1)
	b := n.AddNode("b", 2, 1)
	n.Connect(a, addrA, b, addrB, netsim.Link{Latency: time.Millisecond})
	reg := NewRegistry()
	ha, _ := hip.NewHost(hip.Config{Identity: idA, Locator: addrA, RekeyThreshold: 40})
	hb, _ := hip.NewHost(hip.Config{Identity: idB, Locator: addrB})
	fa := New(a, ha, reg)
	fb := New(b, hb, reg)
	sa := simtcp.NewStack(a, fa)
	sb := simtcp.NewStack(b, fb)

	l := sb.MustListen(80)
	s.Spawn("server", func(p *netsim.Proc) {
		c, err := l.Accept(p, 0)
		if err != nil {
			return
		}
		buf := make([]byte, 256)
		for {
			n, err := c.Read(p, buf)
			if err != nil {
				return
			}
			if _, err := c.Write(p, buf[:n]); err != nil {
				return
			}
		}
	})
	rounds := 0
	s.Spawn("client", func(p *netsim.Proc) {
		c, err := sa.Dial(p, idB.HIT(), 80, 10*time.Second)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		buf := make([]byte, 256)
		for i := 0; i < 120; i++ {
			msg := []byte{byte(i), byte(i >> 8)}
			if _, err := c.Write(p, msg); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
			nr, err := c.Read(p, buf)
			if err != nil || nr != 2 || buf[0] != byte(i) {
				t.Errorf("round %d: %v %v", i, buf[:nr], err)
				return
			}
			rounds++
			p.Sleep(20 * time.Millisecond)
		}
		c.Close()
	})
	s.Run(time.Minute)
	s.Shutdown()
	if rounds != 120 {
		t.Fatalf("rounds = %d, want 120", rounds)
	}
	assoc, ok := ha.Association(idB.HIT())
	if !ok || assoc.Rekeys == 0 {
		t.Fatalf("no automatic rekey happened: %+v", assoc)
	}
}

func TestCloseThenReconnect(t *testing.T) {
	w := buildWorld(t, hip.CostModel{}, netsim.Link{Latency: time.Millisecond})
	l := w.sb.MustListen(80)
	w.sim.Spawn("server", func(p *netsim.Proc) {
		for {
			c, err := l.Accept(p, 0)
			if err != nil {
				return
			}
			conn := c
			p.Spawn("h", func(hp *netsim.Proc) {
				buf := make([]byte, 64)
				n, err := conn.Read(hp, buf)
				if err == nil {
					conn.Write(hp, buf[:n])
				}
				conn.Close()
			})
		}
	})
	ok := 0
	w.sim.Spawn("client", func(p *netsim.Proc) {
		for i := 0; i < 3; i++ {
			c, err := w.sa.Dial(p, idB.HIT(), 80, 10*time.Second)
			if err != nil {
				t.Errorf("dial %d: %v", i, err)
				return
			}
			c.Write(p, []byte("ping"))
			buf := make([]byte, 64)
			if n, err := c.Read(p, buf); err == nil && string(buf[:n]) == "ping" {
				ok++
			}
			c.Close()
			// Tear the HIP association down entirely between rounds: the
			// next Dial must run a fresh base exchange.
			w.fa.Host().Close(idB.HIT(), p.Now())
			w.fa.flushNow()
			p.Sleep(100 * time.Millisecond)
			if _, alive := w.fa.Host().Association(idB.HIT()); alive {
				t.Error("association survived CLOSE")
				return
			}
		}
	})
	w.sim.Run(time.Minute)
	w.sim.Shutdown()
	if ok != 3 {
		t.Fatalf("rounds = %d, want 3 across re-associations", ok)
	}
	if got := w.fa.Host().BEXInitiated; got != 3 {
		t.Fatalf("expected 3 base exchanges, got %d", got)
	}
}

// fabricMapEntries sums the sizes of every map field on the fabric.
func fabricMapEntries(f *Fabric) int {
	n := 0
	v := reflect.ValueOf(f).Elem()
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Kind() == reflect.Map {
			n += v.Field(i).Len()
		}
	}
	return n
}

func TestConcurrentEstablishSharesOneQueue(t *testing.T) {
	// Two processes on one fabric establish at once, toward a reachable
	// peer and a black-holed one. They sleep on the same queue, so each is
	// woken by the other's association events and must read only its own
	// association: the first returns nil when R2 arrives (4 × 1ms), the
	// second ErrBEXFailed at the host's give-up, and the fabric keeps no
	// per-peer wait state behind.
	s := netsim.New(1)
	n := netsim.NewNetwork(s)
	a, b, c := n.AddNode("a", 2, 1), n.AddNode("b", 2, 1), n.AddNode("c", 2, 1)
	addrC := netip.MustParseAddr("10.0.1.2")
	n.Connect(a, addrA, b, addrB, netsim.Link{Latency: time.Millisecond})
	n.Connect(a, netip.MustParseAddr("10.0.1.1"), c, addrC, netsim.Link{Latency: time.Millisecond, Down: true})
	reg := NewRegistry()
	idC := identity.MustGenerate(identity.AlgECDSA)
	ha, _ := hip.NewHost(hip.Config{Identity: idA, Locator: addrA, RetransmitBase: 20 * time.Millisecond})
	hb, _ := hip.NewHost(hip.Config{Identity: idB, Locator: addrB})
	hc, _ := hip.NewHost(hip.Config{Identity: idC, Locator: addrC})
	fa := New(a, ha, reg)
	New(b, hb, reg)
	New(c, hc, reg)
	before := fabricMapEntries(fa)

	var errB, errC error
	var atB, atC netsim.VTime
	s.Spawn("to-c", func(p *netsim.Proc) {
		errC = fa.Establish(p, idC.HIT())
		atC = p.Now()
	})
	s.Spawn("to-b", func(p *netsim.Proc) {
		errB = fa.Establish(p, idB.HIT())
		atB = p.Now()
	})
	s.Run(time.Minute)
	s.Shutdown()
	if errB != nil || atB != 4*time.Millisecond {
		t.Errorf("reachable peer: err %v at %v, want nil at 4ms", errB, atB)
	}
	if errC != ErrBEXFailed || atC <= atB || atC >= fa.BEXTimeout {
		t.Errorf("black-holed peer: err %v at %v, want ErrBEXFailed after %v and before BEXTimeout", errC, atC, atB)
	}
	if after := fabricMapEntries(fa); after != before {
		t.Errorf("fabric maps hold %d entries after establishing, %d before: per-peer wait state", after, before)
	}
}
