package stream

import (
	"bytes"
	"math/rand"
	"testing"
	"time"
)

// FuzzTransfer runs a one-way transfer between two conns joined in memory
// on a schedule the input picks: write and read sizes, when a's
// retransmission timer fires, whether each batch of b's ACKs goes through
// CoalesceACKs first, as the real driver sends it, and whether each data
// segment and each ACK is delivered, dropped, duplicated or held back
// behind the next batch.
// Every payload a polls must be the pattern's bytes at its sequence (the
// lend invariant), every Read must return the next bytes of the pattern,
// exactly once and in order, and once the input runs out a loss-free tail
// must deliver the rest. The small MSS and send buffer put the slide and
// fresh-array boundaries of both buffers, and retransmissions queued
// across them, within a few rounds; the arrays must stay within their
// bounds throughout.
//
// The receive window never closes (it exceeds the whole pattern): the
// stream has no persist timer and takes the peer's window from any ACK,
// stale ones included, so a lost or stale window update after a zero
// window would stall it. That is a property of the protocol, not of the
// buffers under test here.
func FuzzTransfer(f *testing.F) {
	f.Add([]byte{})
	for seed := int64(1); seed <= 4; seed++ {
		in := make([]byte, 600)
		rand.New(rand.NewSource(seed)).Read(in)
		f.Add(in)
	}
	f.Add(bytes.Repeat([]byte{255, 2, 1, 3}, 100)) // big writes, duplicates, holds
	f.Add(bytes.Repeat([]byte{64, 1, 9, 1}, 100))  // drops, timers
	// A short schedule on which a Write that slid under a queued
	// retransmission would lend overwritten bytes.
	f.Add([]byte("A00000007"))
	// Every byte carries the coalescing bit, so every batch of b's ACKs is
	// coalesced, under a drop, a duplicate and a hold in every twelve
	// segments, and timers.
	f.Add(bytes.Repeat([]byte{0x24, 0x64, 0x2c, 0x24, 0x26, 0x64, 0x2c, 0x25, 0x24, 0x64, 0x27, 0x2c}, 50))

	const total = 8 << 10
	src := make([]byte, total)
	rand.New(rand.NewSource(27)).Read(src)
	cfg := Config{MSS: 100, SendBuf: 1000, Window: 2 * total}

	f.Fuzz(func(t *testing.T, in []byte) {
		const dataSeq = 2 // a's ISS 1, plus its SYN
		a, b := New(cfg, dataSeq-1), New(cfg, 1<<31)
		var now time.Duration
		next := func() byte { // 0 once the input runs out: deliver, no timer
			if len(in) == 0 {
				return 0
			}
			c := in[0]
			in = in[1:]
			return c
		}
		var held [2][][]byte
		// carry polls from, coalesces the batch if asked, and hands each
		// segment to to as next picks: deliver, drop, duplicate or hold
		// back. What was held back last time follows this batch.
		carry := func(from, to *Conn, dir int, coalesce bool) {
			segs, _ := from.Poll(now)
			if coalesce {
				segs = CoalesceACKs(segs)
			}
			late := held[dir]
			held[dir] = nil
			deliver := func(wire []byte) {
				seg, err := ParseSegment(wire)
				if err != nil {
					t.Fatal(err)
				}
				to.OnSegment(seg, now)
			}
			for _, seg := range segs {
				// A lent payload is the stream's bytes at its sequence,
				// even where the receiver holds them already and would
				// not notice.
				if off := int(seg.Seq - dataSeq); from == a && len(seg.Payload) > 0 &&
					!bytes.Equal(seg.Payload, src[off:off+len(seg.Payload)]) {
					t.Fatalf("a lent %d bytes at stream offset %d that are not the stream's", len(seg.Payload), off)
				}
				wire := seg.Marshal()
				switch next() & 3 {
				case 0:
					deliver(wire)
				case 2:
					deliver(wire)
					deliver(wire)
				case 3:
					held[dir] = append(held[dir], wire)
				}
			}
			for _, wire := range late {
				deliver(wire)
			}
		}
		written, read := 0, 0
		buf := make([]byte, 4096)
		write := func(n int) {
			k, err := a.Write(src[written:min(written+n, total)])
			if err != nil {
				t.Fatalf("write: %v", err)
			}
			written += k
		}
		readUpTo := func(n int) {
			for n > 0 {
				k, err := b.Read(buf[:min(n, len(buf))])
				if err != nil {
					t.Fatalf("read: %v", err)
				}
				if k == 0 {
					break
				}
				if read+k > written || !bytes.Equal(buf[:k], src[read:read+k]) {
					t.Fatalf("read %d bytes at offset %d (%d written) that are not the stream's next bytes", k, read, written)
				}
				read += k
				n -= k
			}
			b.MaybeWindowUpdate()
		}
		tick := func(fire bool) {
			if fire && a.rtoDeadline != 0 {
				now = max(now, a.rtoDeadline)
				a.OnTimer(now)
			} else {
				now += time.Millisecond
			}
			if cap(a.sndArr) > 2*cfg.SendBuf || cap(b.rcvArr) > 2*cfg.Window {
				t.Fatalf("arrays %d B (send) and %d B (receive), want at most %d and %d",
					cap(a.sndArr), cap(b.rcvArr), 2*cfg.SendBuf, 2*cfg.Window)
			}
		}

		schedule := in
		in = nil // the handshake is loss-free
		a.Open(now)
		for i := 0; !a.Established() || !b.Established(); i++ {
			if i == 3 {
				t.Fatalf("handshake: a=%v b=%v", a.State(), b.State())
			}
			carry(a, b, 0, false)
			carry(b, a, 1, false)
		}
		in = schedule
		for len(in) > 0 {
			write(int(next()) * 16)
			carry(a, b, 0, false)
			readUpTo(int(next()) * 16)
			// The coalescing bit is bit 2, which no other choice reads, so a
			// seed whose bytes all have it set coalesces every batch.
			carry(b, a, 1, next()&4 != 0)
			// Firing at most maxRetries/2 timeouts in a row keeps the
			// conn short of giving up before the tail.
			tick(next()&1 == 1 && a.retries < maxRetries/2)
		}
		for round := 0; read < total; round++ {
			if round == 1000 {
				t.Fatalf("loss-free tail stalled: %d of %d bytes read", read, total)
			}
			write(total)
			carry(a, b, 0, false)
			readUpTo(total)
			carry(b, a, 1, false)
			tick(true)
		}
	})
}

// FuzzParseSegment feeds arbitrary wire units to ParseSegment: short
// input is an error, never a panic, and whatever parses re-marshals to
// the same header and payload (byte 1 is reserved: ignored on parse,
// zero on the wire).
func FuzzParseSegment(f *testing.F) {
	full := Segment{Flags: FlagACK | FlagFIN, Seq: 1<<32 - 1, Ack: 7, Window: 65535, Payload: []byte("payload")}.Marshal()
	f.Add(full)
	f.Add([]byte{})
	f.Add(full[:HeaderSize-1])
	f.Add(full[:HeaderSize]) // empty payload
	f.Add(full[:HeaderSize+1])

	f.Fuzz(func(t *testing.T, b []byte) {
		seg, err := ParseSegment(b)
		if len(b) < HeaderSize {
			if err == nil {
				t.Fatalf("ParseSegment accepted %d bytes, below the %d-byte header", len(b), HeaderSize)
			}
			return
		}
		if err != nil {
			t.Fatalf("ParseSegment(%d bytes): %v", len(b), err)
		}
		wire := make([]byte, HeaderSize+len(seg.Payload))
		seg.MarshalInto(wire)
		if len(wire) != len(b) || wire[0] != b[0] || wire[1] != 0 || !bytes.Equal(wire[2:], b[2:]) {
			t.Fatalf("re-marshal differs:\n in  %x\n out %x", b, wire)
		}
		again, err := ParseSegment(wire)
		if err != nil || again.Flags != seg.Flags || again.Seq != seg.Seq || again.Ack != seg.Ack ||
			again.Window != seg.Window || !bytes.Equal(again.Payload, seg.Payload) {
			t.Fatalf("re-parse differs: %+v then %+v (err %v)", seg, again, err)
		}
	})
}
