//go:build linux && (amd64 || arm64)

// Linux fast path: sendmmsg/recvmmsg move up to txBatchSize/rxBatchMax
// datagrams per syscall. Only the stdlib syscall package is used; the
// mmsghdr layout and the syscall numbers (absent from the generated
// amd64 table) are declared here. Everything the kernel dereferences —
// iovecs, sockaddr storage, the mmsghdr vector itself — lives in the
// engine structs, which the calling goroutine keeps alive across the
// syscall.
package hipudp

import (
	"encoding/binary"
	"net"
	"net/netip"
	"syscall"
	"unsafe"
)

// mmsghdr mirrors the kernel's struct mmsghdr on 64-bit Linux.
type mmsghdr struct {
	Hdr syscall.Msghdr
	Len uint32
	_   [4]byte
}

// batchIO reports whether the vectored fast path is compiled in.
const batchIO = true

// rxBatchMax is the recvmmsg vector length (and thus the per-stack
// receive buffer arena is rxBatchMax * 64KiB).
const rxBatchMax = 32

type txEngine struct {
	msgs [txBatchSize]mmsghdr
	iovs [txBatchSize]syscall.Iovec
	sa4  [txBatchSize]syscall.RawSockaddrInet4
	sa6  [txBatchSize]syscall.RawSockaddrInet6
}

func newTxEngine() *txEngine { return &txEngine{} }

// send transmits up to txBatchSize frames with one sendmmsg. A nil
// RawConn (SyscallConn failed at startup) falls back to the loop.
func (e *txEngine) send(pc *net.UDPConn, rc syscall.RawConn, batch []txPacket) (sent, nsys int, err error) {
	if rc == nil {
		return sendLoop(pc, batch)
	}
	n := len(batch)
	if n > txBatchSize {
		n = txBatchSize
	}
	for i := 0; i < n; i++ {
		p := batch[i]
		e.iovs[i].Base = &p.buf[0]
		e.iovs[i].SetLen(len(p.buf))
		h := &e.msgs[i].Hdr
		*h = syscall.Msghdr{Iov: &e.iovs[i], Iovlen: 1}
		addr := p.ep.Addr()
		if addr.Is4() || addr.Is4In6() {
			sa := &e.sa4[i]
			sa.Family = syscall.AF_INET
			sa.Addr = addr.As4()
			binary.BigEndian.PutUint16((*[2]byte)(unsafe.Pointer(&sa.Port))[:], p.ep.Port())
			h.Name = (*byte)(unsafe.Pointer(sa))
			h.Namelen = uint32(unsafe.Sizeof(*sa))
		} else {
			sa := &e.sa6[i]
			sa.Family = syscall.AF_INET6
			sa.Addr = addr.As16()
			binary.BigEndian.PutUint16((*[2]byte)(unsafe.Pointer(&sa.Port))[:], p.ep.Port())
			h.Name = (*byte)(unsafe.Pointer(sa))
			h.Namelen = uint32(unsafe.Sizeof(*sa))
		}
		e.msgs[i].Len = 0
	}
	werr := rc.Write(func(fd uintptr) bool {
		for {
			r, _, errno := syscall.Syscall6(sysSENDMMSG, fd,
				uintptr(unsafe.Pointer(&e.msgs[0])), uintptr(n), 0, 0, 0)
			switch errno {
			case 0:
				sent = int(r)
				return true
			case syscall.EINTR:
				continue
			case syscall.EAGAIN:
				return false // wait for writability, then retry
			default:
				err = errno
				return true
			}
		}
	})
	nsys = 1
	if werr != nil && err == nil {
		err = werr
	}
	return sent, nsys, err
}

type rxEngine struct {
	msgs  [rxBatchMax]mmsghdr
	iovs  [rxBatchMax]syscall.Iovec
	names [rxBatchMax]syscall.RawSockaddrAny
}

func newRxEngine() *rxEngine { return &rxEngine{} }

// read drains up to len(bufs) (at most rxBatchMax) datagrams with one
// recvmmsg, filling sizes and source endpoints per message. A nil
// RawConn falls back to a single read.
func (e *rxEngine) read(pc *net.UDPConn, rc syscall.RawConn, bufs [][]byte, sizes []int, eps []netip.AddrPort) (cnt, nsys int, err error) {
	if rc == nil {
		return readOne(pc, bufs, sizes, eps)
	}
	n := len(bufs)
	for i := 0; i < n; i++ {
		e.iovs[i].Base = &bufs[i][0]
		e.iovs[i].SetLen(len(bufs[i]))
		e.msgs[i].Hdr = syscall.Msghdr{
			Name:    (*byte)(unsafe.Pointer(&e.names[i])),
			Namelen: uint32(unsafe.Sizeof(e.names[i])),
			Iov:     &e.iovs[i],
			Iovlen:  1,
		}
		e.msgs[i].Len = 0
	}
	rerr := rc.Read(func(fd uintptr) bool {
		for {
			r, _, errno := syscall.Syscall6(sysRECVMMSG, fd,
				uintptr(unsafe.Pointer(&e.msgs[0])), uintptr(n), 0, 0, 0)
			switch errno {
			case 0:
				cnt = int(r)
				return true
			case syscall.EINTR:
				continue
			case syscall.EAGAIN:
				return false // wait for readability, then retry
			default:
				err = errno
				return true
			}
		}
	})
	nsys = 1
	if rerr != nil && err == nil {
		err = rerr
	}
	for i := 0; i < cnt; i++ {
		sizes[i] = int(e.msgs[i].Len)
		eps[i] = rawToAddrPort(&e.names[i])
	}
	return cnt, nsys, err
}

// rawToAddrPort converts a kernel-filled sockaddr to netip form.
func rawToAddrPort(ra *syscall.RawSockaddrAny) netip.AddrPort {
	switch ra.Addr.Family {
	case syscall.AF_INET:
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(ra))
		port := binary.BigEndian.Uint16((*[2]byte)(unsafe.Pointer(&sa.Port))[:])
		return netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), port)
	case syscall.AF_INET6:
		sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(ra))
		port := binary.BigEndian.Uint16((*[2]byte)(unsafe.Pointer(&sa.Port))[:])
		addr := netip.AddrFrom16(sa.Addr)
		if addr.Is4In6() {
			addr = addr.Unmap()
		}
		return netip.AddrPortFrom(addr, port)
	}
	return netip.AddrPort{}
}
