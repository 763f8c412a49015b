package hipudp

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"testing"
	"time"

	"hipcloud/internal/esp"
	"hipcloud/internal/hipwire"
	"hipcloud/internal/stream"
)

// FuzzFrameDemux feeds arbitrary datagrams to a stack that holds an
// established association and a listener, down the path readLoop runs: the
// input picks a UDP_GRO segment size (0: not coalesced), appendSegments
// splits the datagram at it, and onFrames takes the frames as one vector.
// The split frames must be non-empty and concatenate back to the datagram.
// Nothing an outsider can send may panic, open a conn or a listener, or make
// the stack answer — unless a frame parsed as a HIP control packet, which
// the protocol core may answer (an I1 earns its R1).
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

	espFrame := append([]byte{frameESP}, sealed...)
	hipFrame := append([]byte{frameHIP}, i1...)
	f.Add(uint16(0), []byte{})
	f.Add(uint16(0), []byte{frameHIP})
	f.Add(uint16(0), []byte{frameESP})
	f.Add(uint16(0), hipFrame)
	f.Add(uint16(0), append([]byte{frameHIP}, i1[:hipwire.HeaderLen-1]...))
	f.Add(uint16(0), append([]byte{frameESP}, sealed[:esp.HeaderLen-1]...))
	f.Add(uint16(0), espFrame)
	// Coalesced runs: three frames and a short tail, a run split off by one
	// byte, and a control packet among ESP frames of its size.
	f.Add(uint16(len(espFrame)), append(bytes.Repeat(espFrame, 3), espFrame[:20]...))
	f.Add(uint16(len(espFrame)-1), bytes.Repeat(espFrame, 2))
	f.Add(uint16(len(hipFrame)), append(append(append([]byte(nil), hipFrame...), espFrame[:len(hipFrame)]...), hipFrame...))

	ep := netip.MustParseAddrPort("127.0.0.1:9")
	state := func() (conns, listeners int, queued uint64) {
		b.mu.Lock()
		defer b.mu.Unlock()
		return len(b.conns), len(b.listeners), b.Stats().TxDrops
	}
	f.Fuzz(func(t *testing.T, seg uint16, dgram []byte) {
		frames, from := appendSegments(nil, nil, dgram, int(seg), ep)
		control := false
		for _, fr := range frames {
			if len(fr) == 0 {
				t.Fatalf("datagram %x split at %d: an empty frame", dgram, seg)
			}
			if fr[0] == frameHIP {
				_, err := hipwire.Parse(fr[1:])
				control = control || err == nil
			}
		}
		if joined := bytes.Join(frames, nil); !bytes.Equal(joined, dgram) || len(from) != len(frames) {
			t.Fatalf("datagram %x split at %d into %d frames (%d sources) that join to %x", dgram, seg, len(frames), len(from), joined)
		}
		conns, listeners, queued := state()
		b.onFrames(frames, from)
		c, l, q := state()
		if c > conns || l > listeners {
			t.Fatalf("datagram %x split at %d: conns %d -> %d, listeners %d -> %d", dgram, seg, conns, c, listeners, l)
		}
		if q != queued && !control {
			t.Fatalf("datagram %x split at %d carries no HIP control packet and was answered with %d frames", dgram, seg, q-queued)
		}
	})
}
