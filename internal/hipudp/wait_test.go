package hipudp

import (
	"errors"
	"net"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"hipcloud/internal/hip"
	"hipcloud/internal/identity"
	"hipcloud/internal/stream"
)

// newTestStack binds a stack for id on a free localhost port.
func newTestStack(t testing.TB, id *identity.HostIdentity) *Stack {
	t.Helper()
	s, err := NewStack(hip.Config{Identity: id}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// newTestSocket binds a bare UDP socket on localhost.
func newTestSocket(t *testing.T) (*net.UDPConn, netip.AddrPort) {
	t.Helper()
	pc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pc.Close() })
	return pc, pc.LocalAddr().(*net.UDPAddr).AddrPort()
}

// TestDialEndsInsideItsTimeout puts a forwarder between two stacks that
// delays every control frame, so that the four-message base exchange takes
// three quarters of the timeout, and drops every ESP frame, so that the
// stream handshake never finishes: Dial has one deadline for both, not one
// each.
func TestDialEndsInsideItsTimeout(t *testing.T) {
	const timeout = 800 * time.Millisecond
	a, b := newTestStack(t, idA), newTestStack(t, idB)
	relay, relayEP := newTestSocket(t)
	a.AddPeer(idB.HIT(), relayEP)
	b.AddPeer(idA.HIT(), relayEP)
	portA, portB := a.LocalAddr().AddrPort(), b.LocalAddr().AddrPort()
	go func() {
		buf := make([]byte, 64<<10)
		for {
			n, from, err := relay.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			if n < 1 || buf[0] != frameHIP {
				continue
			}
			to := portA
			if from.Port() == portA.Port() {
				to = portB
			}
			pkt := append([]byte(nil), buf[:n]...)
			time.AfterFunc(timeout*3/16, func() { relay.WriteToUDPAddrPort(pkt, to) })
		}
	}()
	if _, err := b.Listen(7); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := a.Dial(idB.HIT(), 7, timeout)
	took := time.Since(start)
	if err != ErrTimeout {
		t.Fatalf("Dial = %v after %v, want ErrTimeout", err, took)
	}
	if st, ok := a.AssociationState(idB.HIT()); !ok || st != hip.Established {
		t.Fatalf("the base exchange did not finish inside the timeout (state %v, %v): the test measured nothing", st, ok)
	}
	if slack := 250 * time.Millisecond; took < timeout || took > timeout+slack {
		t.Fatalf("Dial with a %v timeout returned after %v, want inside %v of it", timeout, took, slack)
	}
	if n := connCount(a); n != 0 {
		t.Fatalf("%d conns left on the dialer after the timeout", n)
	}
}

// TestAbortWakesBlockedReader: when a Write finds the association gone and
// aborts the stream, a Read blocked on the same conn returns at once, not
// at the next tick of a timer.
func TestAbortWakesBlockedReader(t *testing.T) {
	a, b := pair(t)
	l, err := b.Listen(7)
	if err != nil {
		t.Fatal(err)
	}
	go serveEcho(l)
	c := dialEcho(t, a, idB.HIT(), 7)
	defer c.Close()
	// Close the association underneath the conn and wait for the CLOSE_ACK
	// that deletes it. Neither touches the conn.
	a.mu.Lock()
	err = a.host.Close(idB.HIT(), a.now())
	a.flushLocked(netip.AddrPort{})
	a.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, ok := a.AssociationState(idB.HIT()); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("association still there 5 s after CLOSE")
		}
	}
	type result struct {
		err error
		at  time.Time
	}
	done := make(chan result, 1)
	go func() {
		_, err := c.Read(make([]byte, 16))
		done <- result{err, time.Now()}
	}()
	time.Sleep(20 * time.Millisecond) // let the reader block
	select {
	case r := <-done:
		t.Fatalf("Read returned %v before the Write", r.err)
	default:
	}
	start := time.Now()
	if _, err := c.Write([]byte{1}); err != nil {
		t.Fatalf("write: %v", err)
	}
	select {
	case r := <-done:
		if r.err != ErrRefused {
			t.Fatalf("Read = %v, want ErrRefused", r.err)
		}
		if d := r.at.Sub(start); d > 50*time.Millisecond {
			t.Fatalf("blocked Read returned %v after the aborting Write, want well inside 50ms", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked Read never saw the abort")
	}
}

// TestBlockedReadAllocatesNoTimer counts "block in Read, receive one in-order
// packet, return": the frame of the ACK, as in TestOnFramesAllocsPerVector,
// and nothing for the wait itself. With a time.AfterFunc and its closure
// per blocked Read the same loop read 4.
func TestBlockedReadAllocatesNoTimer(t *testing.T) {
	const runs, total = 8, (8 + 1) * stream.DefaultMSS
	a, _, c, frames := inOrderFrames(t, runs+1)
	from := make([]netip.AddrPort, 1)
	// The deliverer gives the reader 2 ms to block before each packet; a
	// reader that was not blocked yet could only lower the count.
	kick := make(chan struct{})
	defer close(kick)
	go func() {
		for range kick {
			time.Sleep(2 * time.Millisecond)
			a.onFrames(frames[:1], from)
			frames = frames[1:]
		}
	}()
	buf := make([]byte, 4096)
	read := 0
	allocs := testing.AllocsPerRun(runs, func() {
		kick <- struct{}{}
		n, err := c.Read(buf)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		read += n
	})
	if read != total {
		t.Fatalf("read %d bytes in %d runs, want %d", read, runs+1, total)
	}
	if allocs > 1 {
		t.Errorf("%.0f allocations per blocked Read, want <= 1 (ACK frame)", allocs)
	}
}

// TestEstablishTimeoutLeavesNoWaiter: an Establish toward a peer that never
// answers returns ErrTimeout and leaves nothing of the call on the stack — no
// table, queue or channel of the Stack holds more than before it.
func TestEstablishTimeoutLeavesNoWaiter(t *testing.T) {
	a := newTestStack(t, idA)
	_, hole := newTestSocket(t)
	a.AddPeer(idB.HIT(), hole)
	sizes := func() map[string]int {
		a.mu.Lock()
		defer a.mu.Unlock()
		m := make(map[string]int)
		v := reflect.ValueOf(a).Elem()
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); f.Kind() {
			case reflect.Map, reflect.Slice, reflect.Chan:
				m[v.Type().Field(i).Name] = f.Len()
			}
		}
		return m
	}
	before := sizes()
	const timeout = 100 * time.Millisecond
	start := time.Now()
	err := a.Establish(idB.HIT(), timeout)
	if took := time.Since(start); !errors.Is(err, ErrTimeout) || took < timeout || took > timeout+250*time.Millisecond {
		t.Fatalf("Establish = %v after %v, want ErrTimeout at %v", err, took, timeout)
	}
	if after := sizes(); !reflect.DeepEqual(before, after) {
		t.Fatalf("a timed-out Establish left state on the stack:\nbefore %v\nafter  %v", before, after)
	}
}
