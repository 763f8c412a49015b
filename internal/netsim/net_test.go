package netsim

import (
	"net/netip"
	"testing"
	"time"
)

func mustAddr(s string) netip.Addr { return netip.MustParseAddr(s) }

// twoHosts builds a <-> b over one link and returns them.
func twoHosts(s *Sim, l Link) (*Network, *Node, *Node) {
	n := NewNetwork(s)
	a := n.AddNode("a", 1, 1)
	b := n.AddNode("b", 1, 1)
	n.Connect(a, mustAddr("10.0.0.1"), b, mustAddr("10.0.0.2"), l)
	return n, a, b
}

func TestUDPDelivery(t *testing.T) {
	s := New(1)
	_, a, b := twoHosts(s, Link{Latency: 5 * time.Millisecond})
	var got Datagram
	var at VTime
	bs := b.MustBindUDP(7)
	s.Spawn("rx", func(p *Proc) {
		dg, err := bs.RecvFrom(p, 0)
		if err != nil {
			t.Errorf("recv: %v", err)
			return
		}
		got = dg
		at = p.Now()
	})
	as := a.MustBindUDP(9000)
	s.Spawn("tx", func(p *Proc) {
		as.SendTo(netip.AddrPortFrom(mustAddr("10.0.0.2"), 7), []byte("hello"))
	})
	s.Run(0)
	if string(got.Payload) != "hello" {
		t.Fatalf("payload = %q", got.Payload)
	}
	if got.Src != as.LocalAddr() {
		t.Fatalf("src = %v, want %v", got.Src, as.LocalAddr())
	}
	if at != 5*time.Millisecond {
		t.Fatalf("arrival at %v, want 5ms", at)
	}
}

func TestUDPRecvTimeout(t *testing.T) {
	s := New(1)
	_, _, b := twoHosts(s, Link{})
	bs := b.MustBindUDP(7)
	var err error
	s.Spawn("rx", func(p *Proc) {
		_, err = bs.RecvFrom(p, 3*time.Millisecond)
	})
	s.Run(0)
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	s := New(1)
	// 1 MB/s, zero latency: a 1040-byte packet (1000 payload + 40 hdr)
	// takes ~1.048ms. Two packets queue behind each other.
	_, a, b := twoHosts(s, Link{Bandwidth: 1e6})
	bs := b.MustBindUDP(7)
	var arrivals []VTime
	s.Spawn("rx", func(p *Proc) {
		for i := 0; i < 2; i++ {
			if _, err := bs.RecvFrom(p, 0); err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			arrivals = append(arrivals, p.Now())
		}
	})
	as := a.MustBindUDP(0)
	dst := netip.AddrPortFrom(mustAddr("10.0.0.2"), 7)
	s.Spawn("tx", func(p *Proc) {
		as.SendTo(dst, make([]byte, 1000))
		as.SendTo(dst, make([]byte, 1000))
	})
	s.Run(0)
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	per := time.Duration(1048.0 / 1e6 * 1e9)
	if diff := arrivals[0] - per; diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("first arrival %v, want ≈%v", arrivals[0], per)
	}
	if diff := arrivals[1] - 2*per; diff < -2*time.Microsecond || diff > 2*time.Microsecond {
		t.Fatalf("second arrival %v, want ≈%v (serialized)", arrivals[1], 2*per)
	}
}

func TestRoutingViaRouter(t *testing.T) {
	s := New(1)
	n := NewNetwork(s)
	a := n.AddNode("a", 1, 1)
	r := n.AddRouter("r")
	b := n.AddNode("b", 1, 1)
	n.Connect(a, mustAddr("10.0.1.1"), r, mustAddr("10.0.1.254"), Link{Latency: time.Millisecond})
	n.Connect(r, mustAddr("10.0.2.254"), b, mustAddr("10.0.2.1"), Link{Latency: time.Millisecond})
	a.AddDefaultRoute(mustAddr("10.0.1.254"))
	b.AddDefaultRoute(mustAddr("10.0.2.254"))
	r.AddRoute(netip.MustParsePrefix("10.0.2.0/24"), mustAddr("10.0.2.1"))

	bs := b.MustBindUDP(7)
	ok := false
	s.Spawn("rx", func(p *Proc) {
		dg, err := bs.RecvFrom(p, 0)
		if err == nil && string(dg.Payload) == "via-router" {
			ok = true
		}
	})
	as := a.MustBindUDP(0)
	s.Spawn("tx", func(p *Proc) {
		as.SendTo(netip.AddrPortFrom(mustAddr("10.0.2.1"), 7), []byte("via-router"))
	})
	s.Run(0)
	if !ok {
		t.Fatal("packet not delivered across router")
	}
}

func TestPingRTT(t *testing.T) {
	s := New(1)
	_, a, _ := twoHosts(s, Link{Latency: 4 * time.Millisecond})
	var rtt time.Duration
	var err error
	s.Spawn("ping", func(p *Proc) {
		rtt, err = a.Ping(p, mustAddr("10.0.0.2"), 64, time.Second)
	})
	s.Run(0)
	if err != nil {
		t.Fatalf("ping: %v", err)
	}
	if rtt != 8*time.Millisecond {
		t.Fatalf("rtt = %v, want 8ms", rtt)
	}
}

func TestPingTimeoutOnLoss(t *testing.T) {
	s := New(1)
	_, a, _ := twoHosts(s, Link{Latency: time.Millisecond, Down: true})
	var err error
	s.Spawn("ping", func(p *Proc) {
		_, err = a.Ping(p, mustAddr("10.0.0.2"), 64, 50*time.Millisecond)
	})
	s.Run(0)
	if err != ErrTimeout {
		t.Fatalf("err = %v, want timeout", err)
	}
}

func TestLinkLossDropsPackets(t *testing.T) {
	s := New(2)
	_, a, b := twoHosts(s, Link{Fault: func(*Packet) FaultDecision {
		return FaultDecision{Drop: s.Rand().Float64() < 0.5}
	}})
	bs := b.MustBindUDP(7)
	received := 0
	s.Spawn("rx", func(p *Proc) {
		for {
			if _, err := bs.RecvFrom(p, 0); err != nil {
				return
			}
			received++
		}
	})
	as := a.MustBindUDP(0)
	dst := netip.AddrPortFrom(mustAddr("10.0.0.2"), 7)
	s.Spawn("tx", func(p *Proc) {
		for i := 0; i < 200; i++ {
			as.SendTo(dst, []byte("x"))
			p.Sleep(time.Millisecond)
		}
	})
	s.Run(0)
	s.Shutdown()
	if received < 60 || received > 140 {
		t.Fatalf("received %d of 200 at 50%% loss", received)
	}
}

func TestTTLExpiry(t *testing.T) {
	s := New(1)
	n := NewNetwork(s)
	// Build a two-node routing loop.
	a := n.AddRouter("a")
	b := n.AddRouter("b")
	n.Connect(a, mustAddr("10.0.0.1"), b, mustAddr("10.0.0.2"), Link{})
	a.AddDefaultRoute(mustAddr("10.0.0.2"))
	b.AddDefaultRoute(mustAddr("10.0.0.1"))
	drops := 0
	s.SetTracer(func(at VTime, kind TraceKind, node string, pkt *Packet, note string) {
		if kind == TraceDrop && note == "ttl expired" {
			drops++
		}
	})
	as := a.MustBindUDP(0)
	s.Spawn("tx", func(p *Proc) {
		as.SendTo(netip.AddrPortFrom(mustAddr("192.0.2.1"), 1), []byte("loop"))
	})
	s.Run(0)
	if drops != 1 {
		t.Fatalf("ttl drops = %d, want 1", drops)
	}
}

func TestNATOutboundInbound(t *testing.T) {
	s := New(1)
	n := NewNetwork(s)
	inside := n.AddNode("inside", 1, 1)
	nat := n.AddNode("nat", 2, 10)
	server := n.AddNode("server", 1, 1)
	n.Connect(inside, mustAddr("192.168.0.2"), nat, mustAddr("192.168.0.1"), Link{Latency: time.Millisecond})
	n.Connect(nat, mustAddr("203.0.113.1"), server, mustAddr("198.51.100.1"), Link{Latency: time.Millisecond})
	inside.AddDefaultRoute(mustAddr("192.168.0.1"))
	server.AddDefaultRoute(mustAddr("203.0.113.1"))
	natbox := nat.EnableNAT(NATPortRestricted, mustAddr("192.168.0.1"))

	ss := server.MustBindUDP(53)
	var seenSrc netip.AddrPort
	s.Spawn("server", func(p *Proc) {
		dg, err := ss.RecvFrom(p, 0)
		if err != nil {
			t.Errorf("server recv: %v", err)
			return
		}
		seenSrc = dg.Src
		ss.SendTo(dg.Src, []byte("reply"))
	})
	cs := inside.MustBindUDP(4000)
	var gotReply bool
	s.Spawn("client", func(p *Proc) {
		cs.SendTo(netip.AddrPortFrom(mustAddr("198.51.100.1"), 53), []byte("query"))
		dg, err := cs.RecvFrom(p, time.Second)
		if err == nil && string(dg.Payload) == "reply" {
			gotReply = true
		}
	})
	s.Run(0)
	if seenSrc.Addr() != mustAddr("203.0.113.1") {
		t.Fatalf("server saw src %v, want NAT external addr", seenSrc)
	}
	if !gotReply {
		t.Fatal("reply did not traverse NAT back")
	}
	if natbox.Mappings() != 1 {
		t.Fatalf("mappings = %d, want 1", natbox.Mappings())
	}
}

// TestNATMappingExpires: a binding idle past the NAT's 2 min timeout is
// gone. The peer's late reply drops, the mapping leaves the table, and the
// next outbound packet is translated to a fresh external port.
func TestNATMappingExpires(t *testing.T) {
	s := New(1)
	n := NewNetwork(s)
	inside := n.AddNode("inside", 1, 1)
	natNode := n.AddNode("nat", 2, 10)
	server := n.AddNode("server", 1, 1)
	n.Connect(inside, mustAddr("192.168.0.2"), natNode, mustAddr("192.168.0.1"), Link{Latency: time.Millisecond})
	n.Connect(natNode, mustAddr("203.0.113.1"), server, mustAddr("198.51.100.1"), Link{Latency: time.Millisecond})
	inside.AddDefaultRoute(mustAddr("192.168.0.1"))
	server.AddDefaultRoute(mustAddr("203.0.113.1"))
	nat := natNode.EnableNAT(NATFullCone, mustAddr("192.168.0.1"))

	ss := server.MustBindUDP(53)
	var ext []netip.AddrPort
	s.Spawn("server", func(p *Proc) {
		for {
			dg, err := ss.RecvFrom(p, 5*time.Minute)
			if err != nil {
				return
			}
			ext = append(ext, dg.Src)
			if len(ext) == 1 {
				p.Sleep(2*time.Minute + time.Second)
				ss.SendTo(dg.Src, []byte("late reply"))
			}
		}
	})
	cs := inside.MustBindUDP(4000)
	dst := netip.AddrPortFrom(mustAddr("198.51.100.1"), 53)
	var replyErr error
	mappings := -1
	s.Spawn("client", func(p *Proc) {
		cs.SendTo(dst, []byte("a"))
		_, replyErr = cs.RecvFrom(p, 2*time.Minute+10*time.Second)
		mappings = nat.Mappings()
		cs.SendTo(dst, []byte("b"))
	})
	s.Run(0)
	if replyErr != ErrTimeout {
		t.Fatalf("reply through the expired mapping: err = %v, want ErrTimeout", replyErr)
	}
	if nat.Drops() != 1 {
		t.Fatalf("nat drops = %d, want 1 (the late reply)", nat.Drops())
	}
	if mappings != 0 {
		t.Fatalf("mappings after expiry = %d, want 0", mappings)
	}
	if len(ext) != 2 || ext[0] == ext[1] {
		t.Fatalf("external endpoints %v, want two different ones", ext)
	}
}

func TestNATFiltersUnsolicited(t *testing.T) {
	s := New(1)
	n := NewNetwork(s)
	inside := n.AddNode("inside", 1, 1)
	nat := n.AddNode("nat", 2, 10)
	attacker := n.AddNode("attacker", 1, 1)
	n.Connect(inside, mustAddr("192.168.0.2"), nat, mustAddr("192.168.0.1"), Link{})
	n.Connect(nat, mustAddr("203.0.113.1"), attacker, mustAddr("198.51.100.9"), Link{})
	inside.AddDefaultRoute(mustAddr("192.168.0.1"))
	attacker.AddDefaultRoute(mustAddr("203.0.113.1"))
	natbox := nat.EnableNAT(NATPortRestricted, mustAddr("192.168.0.1"))

	as := attacker.MustBindUDP(666)
	s.Spawn("attacker", func(p *Proc) {
		// Blind spray at likely NAT ports.
		for port := uint16(20001); port < 20010; port++ {
			as.SendTo(netip.AddrPortFrom(mustAddr("203.0.113.1"), port), []byte("evil"))
		}
	})
	s.Run(0)
	if natbox.Drops() != 9 {
		t.Fatalf("nat drops = %d, want 9", natbox.Drops())
	}
}

func TestLinkDuplication(t *testing.T) {
	s := New(5)
	_, a, b := twoHosts(s, Link{Fault: func(*Packet) FaultDecision {
		return FaultDecision{Duplicate: true}
	}})
	bs := b.MustBindUDP(7)
	got := 0
	s.Spawn("rx", func(p *Proc) {
		for {
			if _, err := bs.RecvFrom(p, 0); err != nil {
				return
			}
			got++
		}
	})
	as := a.MustBindUDP(0)
	s.Spawn("tx", func(p *Proc) {
		as.SendTo(netip.AddrPortFrom(mustAddr("10.0.0.2"), 7), []byte("dup me"))
	})
	s.Run(time.Second)
	s.Shutdown()
	if got != 2 {
		t.Fatalf("received %d copies, want 2 when every packet is duplicated", got)
	}
}

func TestLinkJitterSpreadsArrivals(t *testing.T) {
	s := New(9)
	_, a, b := twoHosts(s, Link{Latency: time.Millisecond, Jitter: 5 * time.Millisecond})
	bs := b.MustBindUDP(7)
	var arrivals []VTime
	s.Spawn("rx", func(p *Proc) {
		for {
			if _, err := bs.RecvFrom(p, 0); err != nil {
				return
			}
			arrivals = append(arrivals, p.Now())
		}
	})
	as := a.MustBindUDP(0)
	s.Spawn("tx", func(p *Proc) {
		for i := 0; i < 20; i++ {
			as.SendTo(netip.AddrPortFrom(mustAddr("10.0.0.2"), 7), []byte("j"))
			p.Sleep(10 * time.Millisecond)
		}
	})
	s.Run(time.Minute)
	s.Shutdown()
	if len(arrivals) != 20 {
		t.Fatalf("arrivals = %d", len(arrivals))
	}
	// Delays relative to send times must not all be equal.
	distinct := map[VTime]bool{}
	for i, at := range arrivals {
		distinct[at-VTime(i)*10*time.Millisecond] = true
	}
	if len(distinct) < 5 {
		t.Fatalf("jitter produced only %d distinct delays", len(distinct))
	}
}

func TestLinkQueueLimitDrops(t *testing.T) {
	s := New(1)
	// 100 KB/s link, 10ms queue limit: a burst of large packets must tail-drop.
	_, a, b := twoHosts(s, Link{Bandwidth: 100e3, QueueLimit: 10 * time.Millisecond})
	bs := b.MustBindUDP(7)
	got := 0
	s.Spawn("rx", func(p *Proc) {
		for {
			if _, err := bs.RecvFrom(p, 0); err != nil {
				return
			}
			got++
		}
	})
	as := a.MustBindUDP(0)
	s.Spawn("tx", func(p *Proc) {
		for i := 0; i < 50; i++ {
			as.SendTo(netip.AddrPortFrom(mustAddr("10.0.0.2"), 7), make([]byte, 1400))
		}
	})
	s.Run(time.Minute)
	s.Shutdown()
	if got >= 50 {
		t.Fatal("queue limit dropped nothing")
	}
	if got == 0 {
		t.Fatal("queue limit dropped everything")
	}
}
