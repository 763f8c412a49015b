package simtcp

import (
	"bytes"
	"math/rand"
	"net/netip"
	"strings"
	"testing"
	"time"

	"hipcloud/internal/netsim"
)

var (
	addrA = netip.MustParseAddr("10.0.0.1")
	addrB = netip.MustParseAddr("10.0.0.2")
)

// env builds two nodes with plain stacks over one link.
func env(t *testing.T, l netsim.Link) (*netsim.Sim, *Stack, *Stack) {
	t.Helper()
	s := netsim.New(1)
	n := netsim.NewNetwork(s)
	a := n.AddNode("a", 2, 1)
	b := n.AddNode("b", 2, 1)
	n.Connect(a, addrA, b, addrB, l)
	sa := NewStack(a, NewPlainFabric(a))
	sb := NewStack(b, NewPlainFabric(b))
	return s, sa, sb
}

func TestDialListenEcho(t *testing.T) {
	s, sa, sb := env(t, netsim.Link{Latency: time.Millisecond})
	l := sb.MustListen(80)
	s.Spawn("server", func(p *netsim.Proc) {
		c, err := l.Accept(p, 0)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		buf := make([]byte, 64)
		n, err := c.Read(p, buf)
		if err != nil {
			t.Errorf("server read: %v", err)
			return
		}
		c.Write(p, append([]byte("echo:"), buf[:n]...))
		c.Close()
	})
	var got []byte
	s.Spawn("client", func(p *netsim.Proc) {
		c, err := sa.Dial(p, addrB, 80, 5*time.Second)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		c.Write(p, []byte("hello"))
		buf := make([]byte, 64)
		n, err := c.Read(p, buf)
		if err != nil {
			t.Errorf("client read: %v", err)
			return
		}
		got = append(got, buf[:n]...)
		c.Close()
	})
	s.Run(10 * time.Second)
	s.Shutdown()
	if string(got) != "echo:hello" {
		t.Fatalf("got %q", got)
	}
}

// bulkTransfer sends total bytes from a to b over a 10 MB/s link, closes
// the connection and runs the simulation to rest. It returns the bytes the
// sink read and the virtual time it read the last of them.
func bulkTransfer(t *testing.T, total int) (int, netsim.VTime) {
	t.Helper()
	s, sa, sb := env(t, netsim.Link{Latency: 200 * time.Microsecond, Bandwidth: 10e6})
	l := sb.MustListen(5001)
	var rcvd int
	var done netsim.VTime
	s.Spawn("sink", func(p *netsim.Proc) {
		c, err := l.Accept(p, 0)
		if err != nil {
			return
		}
		buf := make([]byte, 64*1024)
		for rcvd < total {
			n, err := c.Read(p, buf)
			if err != nil {
				break
			}
			rcvd += n
		}
		done = p.Now()
	})
	s.Spawn("source", func(p *netsim.Proc) {
		c, err := sa.Dial(p, addrB, 5001, 5*time.Second)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		chunk := make([]byte, 32*1024)
		sent := 0
		for sent < total {
			n, err := c.Write(p, chunk)
			if err != nil {
				t.Errorf("write: %v", err)
				return
			}
			sent += n
		}
		c.Close()
	})
	s.Run(2 * time.Minute)
	s.Shutdown()
	return rcvd, done
}

func TestBulkTransferThroughputBoundedByBandwidth(t *testing.T) {
	// 10 MB over a 10 MB/s link should take ≈1s of virtual time.
	const total = 10 << 20
	rcvd, done := bulkTransfer(t, total)
	if rcvd != total {
		t.Fatalf("received %d of %d", rcvd, total)
	}
	secs := done.Seconds()
	if secs < 0.9 || secs > 2.5 {
		t.Fatalf("10MB over 10MB/s took %.2fs of virtual time", secs)
	}
}

// TestBulkTransferReturnsEveryBuffer checks the pool's balance across a
// loss-free plain transfer: every wire buffer flush took from the pool is
// back in it, whole, once the run is over. A leaked buffer or a PutBuf of
// an offset sub-slice leaves PoolOutstanding above its starting value.
func TestBulkTransferReturnsEveryBuffer(t *testing.T) {
	const total = 10 << 20
	start := netsim.PoolOutstanding()
	if rcvd, _ := bulkTransfer(t, total); rcvd != total {
		t.Fatalf("received %d of %d", rcvd, total)
	}
	if n := netsim.PoolOutstanding() - start; n != 0 {
		t.Fatalf("%d pooled buffers not returned whole after the transfer", n)
	}
}

func TestTransferIntegrityUnderLoss(t *testing.T) {
	// 3% random loss, drawn from the Sim's RNG once env has made it.
	var rng *rand.Rand
	s, sa, sb := env(t, netsim.Link{Latency: time.Millisecond, Fault: func(*netsim.Packet) netsim.FaultDecision {
		return netsim.FaultDecision{Drop: rng.Float64() < 0.03}
	}})
	rng = s.Rand()
	const total = 200 << 10
	data := make([]byte, total)
	for i := range data {
		data[i] = byte(i * 31)
	}
	l := sb.MustListen(9000)
	var got []byte
	s.Spawn("sink", func(p *netsim.Proc) {
		c, err := l.Accept(p, 0)
		if err != nil {
			return
		}
		buf := make([]byte, 32*1024)
		for len(got) < total {
			n, err := c.Read(p, buf)
			if err != nil {
				break
			}
			got = append(got, buf[:n]...)
		}
	})
	s.Spawn("source", func(p *netsim.Proc) {
		c, err := sa.Dial(p, addrB, 9000, 30*time.Second)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		c.Write(p, data)
		c.Close()
	})
	s.Run(5 * time.Minute)
	s.Shutdown()
	if !bytes.Equal(got, data) {
		t.Fatalf("lossy transfer mismatch: %d of %d bytes", len(got), total)
	}
}

// TestConnCallsCheckTheirProcOnEntry: a handler that calls a conn's
// blocking Read or Write on a parked process's behalf panics even when the
// data or the buffer space is already there, instead of working until the
// day the call has to park.
func TestConnCallsCheckTheirProcOnEntry(t *testing.T) {
	s, sa, sb := env(t, netsim.Link{Latency: time.Millisecond})
	l := sb.MustListen(80)
	var srv *Conn
	var srvProc *netsim.Proc
	s.Spawn("server", func(p *netsim.Proc) {
		c, err := l.Accept(p, 0)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		srv, srvProc = c, p
		p.Sleep(time.Second) // parked while the handler below runs
	})
	s.Spawn("client", func(p *netsim.Proc) {
		c, err := sa.Dial(p, addrB, 80, 5*time.Second)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		c.Write(p, []byte("hello"))
	})
	calls := []struct {
		name string
		call func() (int, error)
	}{
		{"Read", func() (int, error) { return srv.Read(srvProc, make([]byte, 64)) }},
		{"Write", func() (int, error) { return srv.Write(srvProc, []byte("x")) }},
	}
	s.At(500*time.Millisecond, func() {
		if srv == nil || !srv.inner.Readable() {
			t.Errorf("server conn not readable by the time the handler runs")
			return
		}
		for _, c := range calls {
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.Contains(msg, "scheduler context") {
						t.Errorf("%s from a handler: panic %q, want the scheduler-context panic", c.name, msg)
					}
				}()
				c.call()
			}()
		}
	})
	s.Run(2 * time.Second)
	s.Shutdown()
}

func TestDialNoListenerTimesOut(t *testing.T) {
	s, sa, _ := env(t, netsim.Link{Latency: time.Millisecond})
	var err error
	s.Spawn("client", func(p *netsim.Proc) {
		_, err = sa.Dial(p, addrB, 4242, 2*time.Second)
	})
	s.Run(time.Minute)
	s.Shutdown()
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestManyConcurrentConnections(t *testing.T) {
	s, sa, sb := env(t, netsim.Link{Latency: 500 * time.Microsecond, Bandwidth: 100e6})
	l := sb.MustListen(80)
	const N = 40
	served := 0
	s.Spawn("server", func(p *netsim.Proc) {
		for {
			c, err := l.Accept(p, 0)
			if err != nil {
				return
			}
			conn := c
			p.Spawn("handler", func(hp *netsim.Proc) {
				buf := make([]byte, 128)
				n, err := conn.Read(hp, buf)
				if err != nil {
					return
				}
				conn.Write(hp, buf[:n])
				conn.Close()
				served++
			})
		}
	})
	ok := 0
	for i := 0; i < N; i++ {
		s.Spawn("client", func(p *netsim.Proc) {
			c, err := sa.Dial(p, addrB, 80, 10*time.Second)
			if err != nil {
				return
			}
			msg := []byte("ping")
			c.Write(p, msg)
			buf := make([]byte, 128)
			n, err := c.Read(p, buf)
			if err == nil && bytes.Equal(buf[:n], msg) {
				ok++
			}
			c.Close()
		})
	}
	s.Run(time.Minute)
	s.Shutdown()
	if ok != N {
		t.Fatalf("%d/%d round trips ok (served=%d)", ok, N, served)
	}
}

func TestCloseDeliversEOFAcrossStack(t *testing.T) {
	s, sa, sb := env(t, netsim.Link{Latency: time.Millisecond})
	l := sb.MustListen(80)
	var sawEOF bool
	s.Spawn("server", func(p *netsim.Proc) {
		c, err := l.Accept(p, 0)
		if err != nil {
			return
		}
		buf := make([]byte, 16)
		c.Read(p, buf) // "bye"
		if _, err := c.Read(p, buf); err == ErrClosed {
			sawEOF = true
		}
		c.Close()
	})
	s.Spawn("client", func(p *netsim.Proc) {
		c, err := sa.Dial(p, addrB, 80, 5*time.Second)
		if err != nil {
			return
		}
		c.Write(p, []byte("bye"))
		c.Close()
	})
	s.Run(30 * time.Second)
	s.Shutdown()
	if !sawEOF {
		t.Fatal("server did not observe EOF after client close")
	}
}

// TestListenerCloseResetsItsBacklog: a conn that arrived but was never
// accepted is reset and forgotten when its listener closes, and the
// dialer's blocked Read fails instead of waiting forever.
func TestListenerCloseResetsItsBacklog(t *testing.T) {
	s, sa, sb := env(t, netsim.Link{Latency: time.Millisecond})
	l := sb.MustListen(80)
	s.Spawn("server", func(p *netsim.Proc) {
		p.Sleep(100 * time.Millisecond)
		l.Close()
	})
	var readErr error
	read := false
	s.Spawn("client", func(p *netsim.Proc) {
		c, err := sa.Dial(p, addrB, 80, 5*time.Second)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		_, readErr = c.Read(p, make([]byte, 16))
		read = true
	})
	s.Run(time.Minute)
	s.Shutdown()
	if !read {
		t.Fatal("dialer's Read still blocked a minute after the listener closed")
	}
	if readErr != ErrReset {
		t.Fatalf("dialer's Read = %v, want ErrReset", readErr)
	}
	if n := len(sb.conns); n != 0 {
		t.Fatalf("listener's stack still holds %d conns after Close", n)
	}
}

func TestPerPacketCPUChargesNode(t *testing.T) {
	s := netsim.New(1)
	n := netsim.NewNetwork(s)
	a := n.AddNode("a", 1, 1)
	b := n.AddNode("b", 1, 1)
	n.Connect(a, addrA, b, addrB, netsim.Link{Latency: time.Millisecond})
	fb := NewPlainFabric(b)
	fb.PerPacketCost = 100 * time.Microsecond
	sa := NewStack(a, NewPlainFabric(a))
	sb := NewStack(b, fb)
	l := sb.MustListen(80)
	s.Spawn("server", func(p *netsim.Proc) {
		c, err := l.Accept(p, 0)
		if err != nil {
			return
		}
		buf := make([]byte, 1024)
		for {
			if _, err := c.Read(p, buf); err != nil {
				return
			}
		}
	})
	s.Spawn("client", func(p *netsim.Proc) {
		c, err := sa.Dial(p, addrB, 80, 5*time.Second)
		if err != nil {
			return
		}
		c.Write(p, make([]byte, 50*1400))
		c.Close()
	})
	s.Run(time.Minute)
	s.Shutdown()
	if b.CPU().BusyTime() == 0 {
		t.Fatal("receiver CPU never charged for packet processing")
	}
}

// TestEchoRoundsAllocateNothing: once warm, request/echo rounds on four
// persistent conns allocate nothing. Each round marks every conn dirty on
// both stacks; the service pass drains its dirty queue in place (a queue
// resliced from the front would lose its array and regrow on the next
// mark), and packets, events and buffers come from freelists.
func TestEchoRoundsAllocateNothing(t *testing.T) {
	s, sa, sb := env(t, netsim.Link{Latency: time.Millisecond})
	const conns = 4
	l := sb.MustListen(80)
	s.Spawn("server", func(p *netsim.Proc) {
		for {
			c, err := l.Accept(p, 0)
			if err != nil {
				return
			}
			p.Spawn("echo", func(p *netsim.Proc) {
				buf := make([]byte, 64)
				for {
					n, err := c.Read(p, buf)
					if err != nil {
						return
					}
					c.Write(p, buf[:n])
				}
			})
		}
	})
	start := netsim.NewWaitQueue(s)
	rounds := 0
	for range conns {
		s.Spawn("client", func(p *netsim.Proc) {
			c, err := sa.Dial(p, addrB, 80, 5*time.Second)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			msg, buf := []byte("0123456789abcdef"), make([]byte, 64)
			for {
				start.Wait(p, 0)
				c.Write(p, msg)
				for got := 0; got < len(msg); {
					n, err := c.Read(p, buf)
					if err != nil {
						t.Errorf("read: %v", err)
						return
					}
					got += n
				}
				rounds++
			}
		})
	}
	s.Run(0)
	allocs := testing.AllocsPerRun(50, func() {
		start.WakeAll()
		s.Run(0)
	})
	s.Shutdown()
	if rounds != conns*51 {
		t.Fatalf("%d echo rounds, want %d", rounds, conns*51)
	}
	if allocs != 0 && !raceBuild {
		t.Fatalf("a round of %d echoes allocated %.1f times, want 0", conns, allocs)
	}
}

// raceBuild is set in race builds (race_test.go).
var raceBuild bool
