package hipudp

import "net/netip"

// VectoredIO reports whether this build carries the sendmmsg/recvmmsg
// fast path (Linux amd64/arm64). Elsewhere batching still amortizes
// scheduling, but each datagram costs one syscall.
func VectoredIO() bool { return batchIO }

const (
	// gsoMaxSegs caps the frames one UDP_SEGMENT message carries: the
	// kernel's UDP_MAX_SEGMENTS since GSO for UDP first shipped.
	gsoMaxSegs = 64
	// gsoMaxBytes caps a UDP_SEGMENT message's payload: 64 KiB less the
	// IPv4 and UDP headers, the most one IPv4 UDP datagram can hold.
	gsoMaxBytes = 1<<16 - 1 - 20 - 8
)

// gsoRun returns how many frames from the head of batch leave as one
// UDP_SEGMENT message: a run of at least two frames of the head's size to
// the head's endpoint, plus at most one shorter frame to the same endpoint,
// within gsoMaxSegs and gsoMaxBytes. A head that starts no such run leaves
// alone (1), so a lone frame and the shorter frame behind it stay two
// datagrams — the echo-then-ACK flush of a request/response exchange.
// batch must not be empty.
func gsoRun(batch []txPacket) int {
	seg, ep := len(batch[0].buf), batch[0].ep
	n, total := 1, seg
	for n < len(batch) && n < gsoMaxSegs {
		p := batch[n]
		if p.ep != ep || len(p.buf) > seg || total+len(p.buf) > gsoMaxBytes {
			break
		}
		if len(p.buf) < seg {
			if n >= 2 {
				n++ // the run's shorter tail ends it
			}
			break
		}
		n++
		total += seg
	}
	return n
}

// appendSegments splits a received datagram from ep at seg, its UDP_GRO
// segment size (0: not coalesced), and appends each piece, with ep, to
// frames and eps: one frame per ESP/HIP packet, in wire order. Every piece
// but the last is seg bytes long; an empty datagram yields no frame.
func appendSegments(frames [][]byte, eps []netip.AddrPort, dgram []byte, seg int, ep netip.AddrPort) ([][]byte, []netip.AddrPort) {
	if seg <= 0 {
		seg = len(dgram)
	}
	for len(dgram) > 0 {
		n := min(seg, len(dgram))
		frames = append(frames, dgram[:n:n])
		eps = append(eps, ep)
		dgram = dgram[n:]
	}
	return frames, eps
}
