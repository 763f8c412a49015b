package stream

import (
	"bytes"
	"testing"
)

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
