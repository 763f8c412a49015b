package faults_test

import (
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"time"

	"hipcloud/internal/faults"
	"hipcloud/internal/netsim"
)

var (
	addrA = netip.MustParseAddr("10.0.0.1")
	addrB = netip.MustParseAddr("10.0.0.2")
)

// chaosTrace runs a fixed scenario under one seed: 200 packets spaced 5ms
// through an impairment window, a link flap and a partition, recording
// every delivery and every fault transition as one string.
func chaosTrace(seed int64) string {
	s := netsim.New(seed)
	n := netsim.NewNetwork(s)
	a := n.AddNode("a", 1, 1)
	b := n.AddNode("b", 1, 1)
	l := n.Connect(a, addrA, b, addrB, netsim.Link{Latency: time.Millisecond})
	inj := faults.New(s)
	inj.ImpairLink(l, "ab", 100*time.Millisecond, 300*time.Millisecond, faults.Impairment{
		DropProb:     0.2,
		CorruptProb:  0.2,
		DupProb:      0.1,
		ReorderProb:  0.2,
		ReorderDelay: 8 * time.Millisecond,
	})
	inj.FlapLink(l, "ab", 500*time.Millisecond, 50*time.Millisecond)
	inj.Partition("a|b", 700*time.Millisecond, 100*time.Millisecond,
		[]*netsim.Node{a}, []*netsim.Node{b})

	var sb strings.Builder
	bs := b.MustBindUDP(7)
	s.Spawn("rx", func(p *netsim.Proc) {
		for {
			dg, err := bs.RecvFrom(p, 2*time.Second)
			if err != nil {
				return
			}
			fmt.Fprintf(&sb, "%v %x\n", p.Now(), dg.Payload)
		}
	})
	as := a.MustBindUDP(0)
	dst := netip.AddrPortFrom(addrB, 7)
	s.Spawn("tx", func(p *netsim.Proc) {
		for i := 0; i < 200; i++ {
			as.SendTo(dst, []byte{byte(i), byte(i >> 8), 0xab})
			p.Sleep(5 * time.Millisecond)
		}
	})
	s.Run(0)
	for _, r := range inj.Log() {
		fmt.Fprintf(&sb, "%s\n", r)
	}
	return sb.String()
}

func TestChaosRunIsDeterministic(t *testing.T) {
	one := chaosTrace(42)
	two := chaosTrace(42)
	if one != two {
		t.Fatalf("same-seed chaos runs diverged:\n--- run1 ---\n%s--- run2 ---\n%s", one, two)
	}
	if !strings.Contains(one, "impair on: ab") || !strings.Contains(one, "heal: a|b") {
		t.Fatalf("fault log incomplete:\n%s", one)
	}
	// A different seed must actually change the packet-level outcome,
	// proving the impairment draws come from the sim RNG.
	if other := chaosTrace(43); other == one {
		t.Fatal("different seeds produced identical chaos traces")
	}
}

func TestPartitionBlocksBothWaysAndHeals(t *testing.T) {
	s := netsim.New(1)
	n := netsim.NewNetwork(s)
	a := n.AddNode("a", 1, 1)
	b := n.AddNode("b", 1, 1)
	c := n.AddNode("c", 1, 1)
	r := n.AddRouter("r")
	ra, rb, rc := netip.MustParseAddr("10.0.0.254"), netip.MustParseAddr("10.0.1.254"), netip.MustParseAddr("10.0.2.254")
	addrC := netip.MustParseAddr("10.0.2.1")
	n.Connect(a, addrA, r, ra, netsim.Link{Latency: time.Millisecond})
	n.Connect(b, addrB, r, rb, netsim.Link{Latency: time.Millisecond})
	n.Connect(c, addrC, r, rc, netsim.Link{Latency: time.Millisecond})
	a.AddDefaultRoute(ra)
	b.AddDefaultRoute(rb)
	c.AddDefaultRoute(rc)

	inj := faults.New(s)
	inj.Partition("a|b", 10*time.Millisecond, 50*time.Millisecond,
		[]*netsim.Node{a}, []*netsim.Node{b})

	recv := func(nd *netsim.Node, port uint16, got *[]string) {
		sock := nd.MustBindUDP(port)
		s.Spawn(nd.Name()+"/rx", func(p *netsim.Proc) {
			for {
				dg, err := sock.RecvFrom(p, 200*time.Millisecond)
				if err != nil {
					return
				}
				*got = append(*got, string(dg.Payload))
			}
		})
	}
	var atA, atB, atC []string
	recv(a, 7, &atA)
	recv(b, 7, &atB)
	recv(c, 7, &atC)
	send := func(from *netsim.Node, to netip.Addr, tag string) {
		sock := from.MustBindUDP(0)
		s.Spawn(from.Name()+"/tx/"+tag, func(p *netsim.Proc) {
			p.Sleep(20 * time.Millisecond) // inside the partition window
			sock.SendTo(netip.AddrPortFrom(to, 7), []byte(tag+"-during"))
			p.Sleep(60 * time.Millisecond) // after heal (t=80ms)
			sock.SendTo(netip.AddrPortFrom(to, 7), []byte(tag+"-after"))
		})
	}
	send(a, addrB, "a>b")
	send(b, addrA, "b>a")
	send(a, addrC, "a>c") // c is outside the partition: unaffected
	s.Run(0)

	if got := strings.Join(atB, ","); got != "a>b-after" {
		t.Fatalf("b received %q, want only the post-heal packet", got)
	}
	if got := strings.Join(atA, ","); got != "b>a-after" {
		t.Fatalf("a received %q, want only the post-heal packet", got)
	}
	if got := strings.Join(atC, ","); got != "a>c-during,a>c-after" {
		t.Fatalf("c received %q, want both packets (not partitioned)", got)
	}
}

func TestInjectorDownNodeAndStall(t *testing.T) {
	s := netsim.New(1)
	n := netsim.NewNetwork(s)
	a := n.AddNode("a", 1, 1)
	b := n.AddNode("b", 2, 1)
	n.Connect(a, addrA, b, addrB, netsim.Link{Latency: time.Millisecond})

	inj := faults.New(s)
	inj.DownNode(b, 10*time.Millisecond, 20*time.Millisecond)
	inj.StallCPU(b, 50*time.Millisecond, 30*time.Millisecond)

	var got int
	bs := b.MustBindUDP(7)
	s.Spawn("rx", func(p *netsim.Proc) {
		for {
			if _, err := bs.RecvFrom(p, 300*time.Millisecond); err != nil {
				return
			}
			got++
		}
	})
	var workDone netsim.VTime
	s.Spawn("worker", func(p *netsim.Proc) {
		p.Sleep(55 * time.Millisecond) // mid-stall
		b.CPU().Use(p, time.Millisecond)
		workDone = p.Now()
	})
	as := a.MustBindUDP(0)
	dst := netip.AddrPortFrom(addrB, 7)
	s.Spawn("tx", func(p *netsim.Proc) {
		p.Sleep(15 * time.Millisecond)
		as.SendTo(dst, []byte("lost")) // node down
		p.Sleep(20 * time.Millisecond)
		as.SendTo(dst, []byte("ok")) // node back up
	})
	s.Run(0)
	if got != 1 {
		t.Fatalf("delivered %d packets, want 1 (node was down for the first)", got)
	}
	// StallCPU holds both cores until t=80ms; the 1ms job queued at 55ms
	// cannot finish before the release.
	if workDone < 80*time.Millisecond {
		t.Fatalf("stalled work finished at %v, want ≥80ms", workDone)
	}
	var wantLog = []string{"node down: b", "node up: b", "cpu stall: b", "cpu release: b"}
	log := inj.Log()
	if len(log) != len(wantLog) {
		t.Fatalf("fault log %v, want %v", log, wantLog)
	}
	for i, r := range log {
		if r.What != wantLog[i] {
			t.Fatalf("fault log[%d] = %q, want %q", i, r.What, wantLog[i])
		}
	}
}

// TestResetNATDropsOldMapping: a scheduled NAT reset flushes the mapping
// table at its time and logs it, so the peer's reply to the old external
// endpoint drops.
func TestResetNATDropsOldMapping(t *testing.T) {
	s := netsim.New(1)
	n := netsim.NewNetwork(s)
	inside := n.AddNode("inside", 1, 1)
	natNode := n.AddNode("nat", 2, 10)
	server := n.AddNode("server", 1, 1)
	insideAddr, innerGW := netip.MustParseAddr("192.168.0.2"), netip.MustParseAddr("192.168.0.1")
	outerGW, serverAddr := netip.MustParseAddr("203.0.113.1"), netip.MustParseAddr("198.51.100.1")
	n.Connect(inside, insideAddr, natNode, innerGW, netsim.Link{Latency: time.Millisecond})
	n.Connect(natNode, outerGW, server, serverAddr, netsim.Link{Latency: time.Millisecond})
	inside.AddDefaultRoute(innerGW)
	server.AddDefaultRoute(outerGW)
	nat := natNode.EnableNAT(netsim.NATFullCone, innerGW)

	inj := faults.New(s)
	inj.ResetNAT(nat, "edge", 50*time.Millisecond)

	ss := server.MustBindUDP(53)
	s.Spawn("server", func(p *netsim.Proc) {
		dg, err := ss.RecvFrom(p, time.Second)
		if err != nil {
			return
		}
		p.Sleep(100 * time.Millisecond) // past the reset
		ss.SendTo(dg.Src, []byte("reply"))
	})
	cs := inside.MustBindUDP(4000)
	var replyErr error
	s.Spawn("client", func(p *netsim.Proc) {
		cs.SendTo(netip.AddrPortFrom(serverAddr, 53), []byte("query"))
		_, replyErr = cs.RecvFrom(p, 300*time.Millisecond)
	})
	s.Run(0)
	if replyErr != netsim.ErrTimeout {
		t.Fatalf("reply to the pre-reset mapping: err = %v, want ErrTimeout", replyErr)
	}
	if nat.Drops() != 1 {
		t.Fatalf("nat drops = %d, want 1 (the reply)", nat.Drops())
	}
	log := inj.Log()
	if len(log) != 1 || log[0].What != "nat reset: edge" || log[0].At != 50*time.Millisecond {
		t.Fatalf("fault log = %v, want one nat reset at 50ms", log)
	}
}
