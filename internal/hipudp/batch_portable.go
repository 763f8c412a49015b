//go:build !linux || !(amd64 || arm64)

// Portable engines: one syscall per datagram through the net package.
// Batching still amortizes scheduling and lock traffic, just not
// syscalls; the Stats counters make the difference visible.
package hipudp

import (
	"net"
	"net/netip"
	"syscall"
)

// batchIO reports whether the vectored fast path is compiled in.
const batchIO = false

// rxBatchMax is the receive vector length: readOne fills one slot.
const rxBatchMax = 1

type txEngine struct{}

func newTxEngine() *txEngine { return &txEngine{} }

func (e *txEngine) send(pc *net.UDPConn, rc syscall.RawConn, batch []txPacket) (sent, nsys int, err error) {
	return sendLoop(pc, batch)
}

type rxEngine struct{}

func newRxEngine() *rxEngine { return &rxEngine{} }

func (e *rxEngine) read(pc *net.UDPConn, rc syscall.RawConn, bufs [][]byte, sizes []int, eps []netip.AddrPort) (cnt, nsys int, err error) {
	return readOne(pc, bufs, sizes, eps)
}
