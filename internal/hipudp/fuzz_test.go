package hipudp

import (
	"encoding/binary"
	"net/netip"
	"testing"
	"time"

	"hipcloud/internal/esp"
	"hipcloud/internal/hipwire"
	"hipcloud/internal/stream"
)

// FuzzFrameDemux feeds arbitrary datagrams to a stack that holds an
// established association and a listener, each as a one-frame vector
// through onFrames, the path readLoop runs.
// Nothing an outsider can send may panic, open a conn or a listener, or make
// the stack answer — unless it parsed as a HIP control packet, which the
// protocol core may answer (an I1 earns its R1).
func FuzzFrameDemux(f *testing.F) {
	a, b := newTestStack(f, idA), newTestStack(f, idB)
	a.AddPeer(idB.HIT(), b.LocalAddr().AddrPort())
	b.AddPeer(idA.HIT(), a.LocalAddr().AddrPort())
	if _, err := b.Listen(7); err != nil {
		f.Fatal(err)
	}
	if err := a.Establish(idB.HIT(), 5*time.Second); err != nil {
		f.Fatal(err)
	}
	// A SYN for b's listener under the live SA: one flipped bit away from a
	// packet that would open a conn.
	syn := stream.Segment{Flags: stream.FlagSYN, Seq: 1, Window: 65535}
	plain := make([]byte, muxHeader+stream.HeaderSize)
	plain[0] = innerStream
	binary.BigEndian.PutUint16(plain[1:], ephemeralBase)
	binary.BigEndian.PutUint16(plain[3:], 7)
	syn.MarshalInto(plain[muxHeader:])
	a.mu.Lock()
	sealed, _, err := a.host.SealData(idB.HIT(), plain, false)
	a.mu.Unlock()
	if err != nil {
		f.Fatal(err)
	}
	sealed[len(sealed)-1] ^= 1
	i1 := (&hipwire.Packet{Type: hipwire.I1, SenderHIT: idA.HIT(), ReceiverHIT: idB.HIT()}).Marshal()
	a.Close()
	// With its sender stopped, every frame b tries to queue is counted as a
	// drop at once, under the call that queued it.
	b.sender.close()

	f.Add([]byte{})
	f.Add([]byte{frameHIP})
	f.Add([]byte{frameESP})
	f.Add(append([]byte{frameHIP}, i1...))
	f.Add(append([]byte{frameHIP}, i1[:hipwire.HeaderLen-1]...))
	f.Add(append([]byte{frameESP}, sealed[:esp.HeaderLen-1]...))
	f.Add(append([]byte{frameESP}, sealed...))

	from := []netip.AddrPort{netip.MustParseAddrPort("127.0.0.1:9")}
	state := func() (conns, listeners int, queued uint64) {
		b.mu.Lock()
		defer b.mu.Unlock()
		return len(b.conns), len(b.listeners), b.Stats().TxDrops
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		conns, listeners, queued := state()
		control := false
		if len(frame) > 0 && frame[0] == frameHIP {
			_, err := hipwire.Parse(frame[1:])
			control = err == nil
		}
		b.onFrames([][]byte{frame}, from)
		c, l, q := state()
		if c > conns || l > listeners {
			t.Fatalf("frame %x: conns %d -> %d, listeners %d -> %d", frame, conns, c, listeners, l)
		}
		if q != queued && !control {
			t.Fatalf("frame %x is no HIP control packet and was answered with %d frames", frame, q-queued)
		}
	})
}
