//go:build !linux || !(amd64 || arm64)

// Portable engines: one syscall per datagram through the net package.
// Batching still amortizes scheduling and lock traffic, just not
// syscalls; the Stats counters make the difference visible.
package hipudp

import (
	"io"
	"net"
	"net/netip"
	"syscall"
)

// batchIO reports whether the vectored fast path is compiled in.
const batchIO = false

// rxBatchMax is the receive vector length: read fills one slot.
const rxBatchMax = 1

type txEngine struct{}

func newTxEngine() *txEngine { return &txEngine{} }

// send writes one frame per syscall. It stops at the first failure so the
// caller can attribute the error to the exact frame.
func (e *txEngine) send(pc *net.UDPConn, rc syscall.RawConn, batch []txPacket) (sent, nsys int, err error) {
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

type rxEngine struct{}

func newRxEngine(rc syscall.RawConn) *rxEngine { return &rxEngine{} }

// read is one blocking ReadFromUDPAddrPort into the first buffer, never
// coalesced.
func (e *rxEngine) read(pc *net.UDPConn, rc syscall.RawConn, bufs [][]byte, sizes, segs []int, eps []netip.AddrPort) (cnt, nsys int, err error) {
	n, ep, err := pc.ReadFromUDPAddrPort(bufs[0])
	if err != nil {
		return 0, 1, err
	}
	sizes[0] = n
	segs[0] = 0
	eps[0] = ep
	return 1, 1, nil
}
