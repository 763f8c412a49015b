package hipudp

import (
	"io"
	"net"
	"net/netip"
)

// VectoredIO reports whether this build carries the sendmmsg/recvmmsg
// fast path (Linux amd64/arm64). Elsewhere batching still amortizes
// scheduling, but each datagram costs one syscall.
func VectoredIO() bool { return batchIO }

// sendLoop is the engine-independent fallback: one write syscall per
// frame. It stops at the first failure so the caller can attribute the
// error to the exact frame.
func sendLoop(pc *net.UDPConn, batch []txPacket) (sent, nsys int, err error) {
	for _, p := range batch {
		nsys++
		n, werr := pc.WriteToUDPAddrPort(p.buf, p.ep)
		if werr != nil {
			return sent, nsys, werr
		}
		if n != len(p.buf) {
			return sent, nsys, io.ErrShortWrite
		}
		sent++
	}
	return sent, nsys, nil
}

// readOne is the engine-independent fallback: a single blocking
// ReadFromUDPAddrPort into the first buffer.
func readOne(pc *net.UDPConn, bufs [][]byte, sizes []int, eps []netip.AddrPort) (cnt, nsys int, err error) {
	n, ep, rerr := pc.ReadFromUDPAddrPort(bufs[0])
	if rerr != nil {
		return 0, 1, rerr
	}
	sizes[0] = n
	eps[0] = ep
	return 1, 1, nil
}
