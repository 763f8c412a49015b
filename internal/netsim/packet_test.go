package netsim

import (
	"net/netip"
	"testing"
	"time"
)

// routed builds a -- r -- b with 1 ms links and returns the nodes and the
// two links.
func routed(s *Sim) (a, r, b *Node, ar, rb *Link) {
	n := NewNetwork(s)
	a, r, b = n.AddNode("a", 1, 1), n.AddRouter("r"), n.AddNode("b", 1, 1)
	ar = n.Connect(a, mustAddr("10.0.1.1"), r, mustAddr("10.0.1.254"), Link{Latency: time.Millisecond})
	rb = n.Connect(r, mustAddr("10.0.2.254"), b, mustAddr("10.0.2.1"), Link{Latency: time.Millisecond})
	a.AddDefaultRoute(mustAddr("10.0.1.254"))
	b.AddDefaultRoute(mustAddr("10.0.2.254"))
	r.AddRoute(netip.MustParsePrefix("10.0.2.0/24"), mustAddr("10.0.2.1"))
	r.AddRoute(netip.MustParsePrefix("10.0.1.0/24"), mustAddr("10.0.1.1"))
	return a, r, b, ar, rb
}

// TestTransmitWithoutTracerAllocatesNothing: once the freelists are warm,
// a datagram across a router to a socket handler allocates nothing. The
// packet comes from the simulation's freelist, and transmit formats the
// trace note only for a tracer.
func TestTransmitWithoutTracerAllocatesNothing(t *testing.T) {
	s := New(1)
	a, _, b, _, _ := routed(s)
	got := 0
	b.MustBindUDP(7).Handler = func(Datagram) { got++ }
	as := a.MustBindUDP(0)
	dst := netip.AddrPortFrom(mustAddr("10.0.2.1"), 7)
	payload := []byte("ping")
	allocs := testing.AllocsPerRun(100, func() {
		as.SendTo(dst, payload)
		s.Run(0)
	})
	if got != 101 {
		t.Fatalf("%d datagrams delivered, want 101", got)
	}
	if allocs != 0 {
		t.Fatalf("a routed datagram allocated %.1f times, want 0", allocs)
	}
}

// TestPacketsComeBackOnEveryPath is the packet freelist's ledger: on every
// path a packet can end (a socket's queue or handler, a raw tap, ICMP,
// NAT translation and NAT drops, every drop reason, fault copies, and
// Shutdown with packets in flight), the network frees every packet it
// handed out.
func TestPacketsComeBackOnEveryPath(t *testing.T) {
	dstB := netip.AddrPortFrom(mustAddr("10.0.2.1"), 7)
	cases := []struct {
		name string
		run  func(s *Sim, a, r, b *Node, ar, rb *Link)
	}{
		{"socket queue and buffer full", func(s *Sim, a, _, b *Node, _, _ *Link) {
			b.MustBindUDP(7).maxBuf = 2
			as := a.MustBindUDP(0)
			for range 4 {
				as.SendTo(dstB, []byte("q"))
			}
		}},
		{"closed socket", func(s *Sim, a, _, b *Node, _, _ *Link) {
			bs := b.MustBindUDP(7)
			a.MustBindUDP(0).SendTo(dstB, []byte("q"))
			s.After(time.Microsecond, bs.Close)
		}},
		{"raw tap", func(s *Sim, a, _, b *Node, _, _ *Link) {
			b.TapRaw(ProtoESP, func(*Packet) {})
			a.SendRaw(ProtoESP, netip.AddrPortFrom(a.Addr(), 0), dstB, []byte("esp"), 0)
		}},
		{"loopback", func(s *Sim, a, _, _ *Node, _, _ *Link) {
			as := a.MustBindUDP(7)
			as.SendTo(as.LocalAddr(), []byte("self"))
		}},
		{"ping", func(s *Sim, a, _, _ *Node, _, _ *Link) {
			s.Spawn("ping", func(p *Proc) {
				if _, err := a.Ping(p, mustAddr("10.0.2.1"), 64, time.Second); err != nil {
					panic(err)
				}
			})
		}},
		{"drops", func(s *Sim, a, r, b *Node, ar, rb *Link) {
			as := a.MustBindUDP(0)
			as.SendTo(netip.AddrPortFrom(mustAddr("10.0.2.1"), 9), []byte("no listener"))
			as.SendTo(netip.AddrPortFrom(mustAddr("172.16.0.1"), 9), []byte("no route at r"))
			b.MustBindUDP(0).SendTo(netip.AddrPortFrom(mustAddr("10.0.1.1"), 9), []byte("b to a"))
			r.Filter = func(pkt *Packet) bool { return string(pkt.Payload) != "filtered" }
			as.SendTo(dstB, []byte("filtered"))
			s.After(10*time.Millisecond, func() {
				r.Filter = nil
				ar.Down = true
				as.SendTo(dstB, []byte("link down"))
				ar.Down = false
				ar.Fault = func(*Packet) FaultDecision { return FaultDecision{Drop: true} }
				as.SendTo(dstB, []byte("fault drop"))
				ar.Fault = nil
				b.Down = true
				as.SendTo(dstB, []byte("node down"))
			})
		}},
		{"ttl expired", func(s *Sim, a, r, _ *Node, _, _ *Link) {
			r.AddRoute(netip.MustParsePrefix("192.0.2.0/24"), mustAddr("10.0.1.1"))
			a.MustBindUDP(0).SendTo(netip.AddrPortFrom(mustAddr("192.0.2.1"), 9), []byte("loop"))
		}},
		{"queue overflow", func(s *Sim, a, _, b *Node, ar, _ *Link) {
			b.MustBindUDP(7)
			ar.Bandwidth, ar.QueueLimit = 100e3, time.Millisecond
			as := a.MustBindUDP(0)
			for range 10 {
				as.SendTo(dstB, make([]byte, 1400))
			}
		}},
		{"fault copies", func(s *Sim, a, _, b *Node, ar, _ *Link) {
			b.MustBindUDP(7).Handler = func(dg Datagram) { PutBuf(dg.Payload) }
			ar.Fault = func(*Packet) FaultDecision { return FaultDecision{Corrupt: true, Duplicate: true} }
			a.MustBindUDP(0).SendTo(dstB, GetBuf(100))
		}},
		{"in flight at Shutdown", func(s *Sim, a, _, b *Node, _, _ *Link) {
			b.MustBindUDP(7)
			a.MustBindUDP(0).SendTo(dstB, []byte("late"))
			s.Run(time.Microsecond)
			if s.pktOut == 0 {
				panic("no packet in flight")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(1)
			a, r, b, ar, rb := routed(s)
			tc.run(s, a, r, b, ar, rb)
			s.Run(time.Minute)
			s.Shutdown()
			if s.pktOut != 0 {
				t.Fatalf("%d packets not freed", s.pktOut)
			}
			if len(s.pktFree) == 0 {
				t.Fatal("no packet reached the freelist")
			}
		})
	}
}

// TestNATPathsFreePackets: translated packets both ways and the NAT's two
// drop reasons free every packet.
func TestNATPathsFreePackets(t *testing.T) {
	s := New(1)
	n := NewNetwork(s)
	inside, nat, server := n.AddNode("inside", 1, 1), n.AddNode("nat", 2, 10), n.AddNode("server", 1, 1)
	n.Connect(inside, mustAddr("192.168.0.2"), nat, mustAddr("192.168.0.1"), Link{Latency: time.Millisecond})
	n.Connect(nat, mustAddr("203.0.113.1"), server, mustAddr("198.51.100.1"), Link{Latency: time.Millisecond})
	inside.AddDefaultRoute(mustAddr("192.168.0.1"))
	server.AddDefaultRoute(mustAddr("203.0.113.1"))
	natbox := nat.EnableNAT(NATPortRestricted, mustAddr("192.168.0.1"))
	ss := server.MustBindUDP(53)
	ss.Handler = func(dg Datagram) { ss.SendTo(dg.Src, []byte("reply")) }
	replies := 0
	cs := inside.MustBindUDP(4000)
	cs.Handler = func(Datagram) { replies++ }
	cs.SendTo(netip.AddrPortFrom(mustAddr("198.51.100.1"), 53), []byte("query"))
	s.Run(0)
	var drops []string
	s.SetTracer(func(_ VTime, kind TraceKind, _ string, _ *Packet, note string) {
		if kind == TraceDrop {
			drops = append(drops, note)
		}
	})
	other := server.MustBindUDP(54)
	other.SendTo(netip.AddrPortFrom(mustAddr("203.0.113.1"), 20001), []byte("unsolicited"))
	other.SendTo(netip.AddrPortFrom(mustAddr("203.0.113.1"), 9), []byte("no mapping"))
	s.Run(0)
	s.Shutdown()
	if replies != 1 || natbox.Drops() != 2 || len(drops) != 2 || drops[0] != "nat: filtered" || drops[1] != "nat: no mapping" {
		t.Fatalf("%d replies, NAT drops %d %q; want 1 reply and a filtered and an unmapped drop", replies, natbox.Drops(), drops)
	}
	if s.pktOut != 0 {
		t.Fatalf("%d packets not freed", s.pktOut)
	}
}

// TestFreedPacketReadsEmptyAndPanicsOnSecondFree: a reader that kept a
// *Packet past its call reads a cleared packet, and a second free panics.
func TestFreedPacketReadsEmptyAndPanicsOnSecondFree(t *testing.T) {
	s := New(1)
	_, a, b := twoHosts(s, Link{})
	var kept *Packet
	b.TapRaw(ProtoESP, func(pkt *Packet) { kept = pkt })
	a.SendRaw(ProtoESP, netip.AddrPortFrom(a.Addr(), 0), netip.AddrPortFrom(b.Addr(), 0), []byte("esp"), 0)
	s.Run(0)
	if kept == nil || kept.Payload != nil || kept.Size != 0 {
		t.Fatalf("kept packet reads %+v after its journey, want it cleared", kept)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("second free did not panic")
		}
	}()
	s.freePacket(kept)
}
