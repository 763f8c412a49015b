package teredo

import (
	"bytes"
	"net/netip"
	"testing"

	"hipcloud/internal/netsim"
)

// FuzzDecodeData feeds arbitrary tunnel datagrams to decodeData: anything
// short or of another type is refused, never a panic, and whatever
// decodes re-encodes to the same bytes.
func FuzzDecodeData(f *testing.F) {
	src := netip.MustParseAddr("2001:0:c633:6401::1")
	dst := netip.MustParseAddr("2001:0:c633:6401::2")
	full := encodeData(netsim.ProtoUDP, src, dst, []byte("payload"))
	f.Add(full)
	f.Add([]byte{})
	f.Add(full[:dataHeader-1])
	f.Add(full[:dataHeader]) // empty payload: the bubble shape
	f.Add(append([]byte{typeData + 1}, full[1:]...))

	f.Fuzz(func(t *testing.T, b []byte) {
		proto, s, d, payload, ok := decodeData(b)
		if len(b) < dataHeader || b[0] != typeData {
			if ok {
				t.Fatalf("decodeData accepted %x", b)
			}
			return
		}
		if !ok {
			t.Fatalf("decodeData refused a well-formed %d-byte datagram", len(b))
		}
		if again := encodeData(proto, s, d, payload); !bytes.Equal(again, b) {
			t.Fatalf("re-encode differs:\n in  %x\n out %x", b, again)
		}
	})
}
