//go:build linux && (amd64 || arm64)

// Linux fast path: sendmmsg/recvmmsg move up to txBatchSize/rxBatchMax
// messages per syscall, and UDP GSO/GRO let one message carry a run of
// equal-size frames: the sender hands each run (gsoRun) to the kernel as
// one UDP_SEGMENT message, which leaves as one datagram per frame, and the
// socket's UDP_GRO lets the kernel deliver such a run whole, with its
// segment size, for readLoop to split. Only the stdlib syscall package is
// used; the mmsghdr layout, the UDP option numbers and the syscall numbers
// (absent from the generated amd64 table) are declared here. Everything the
// kernel dereferences — iovecs, sockaddr storage, control messages, the
// mmsghdr vector itself — lives in the engine structs, which the calling
// goroutine keeps alive across the syscall. So do each syscall's count and
// results (mmsgCall), so that a sendmmsg or recvmmsg allocates nothing.
package hipudp

import (
	"encoding/binary"
	"errors"
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

// UDP-level socket option and control message numbers (linux/udp.h).
const (
	udpSegment = 103 // cmsg: send this message as segments of a u16 size
	udpGRO     = 104 // sockopt: deliver coalesced runs; cmsg: their int size
)

// mmsgCall is one engine's sendmmsg or recvmmsg, bound once as the RawConn
// callback fn: a closure built per call would allocate. fn runs the syscall
// over the n messages at msgs and leaves the messages done in done, a
// failure in errno.
type mmsgCall struct {
	fn      func(fd uintptr) bool
	trap    uintptr
	msgs    *mmsghdr
	n, done int
	errno   syscall.Errno
}

func (m *mmsgCall) bind(trap uintptr, msgs *mmsghdr) {
	m.trap, m.msgs = trap, msgs
	m.fn = m.call
}

func (m *mmsgCall) call(fd uintptr) bool {
	for {
		r, _, errno := syscall.Syscall6(m.trap, fd, uintptr(unsafe.Pointer(m.msgs)), uintptr(m.n), 0, 0, 0)
		switch errno {
		case 0:
			m.done = int(r)
			return true
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false // wait until the socket is ready, then retry
		default:
			m.errno = errno
			return true
		}
	}
}

// run makes the call over n messages through rc's Write (write) or Read and
// returns the messages done and the failure, the syscall's first.
func (m *mmsgCall) run(rc syscall.RawConn, write bool, n int) (done int, err error) {
	m.n, m.done, m.errno = n, 0, 0
	if write {
		err = rc.Write(m.fn)
	} else {
		err = rc.Read(m.fn)
	}
	if m.errno != 0 {
		err = m.errno
	}
	return m.done, err
}

// cmsgWords is one control message with up to 8 bytes of data, in the
// uint64 words that keep it aligned for the kernel.
const cmsgWords = (syscall.SizeofCmsghdr + 8) / 8

type txEngine struct {
	msgs [txBatchSize]mmsghdr
	iovs [txBatchSize]syscall.Iovec
	sa4  [txBatchSize]syscall.RawSockaddrInet4
	sa6  [txBatchSize]syscall.RawSockaddrInet6
	// cmsgs holds each message's UDP_SEGMENT control message, runs its
	// frame count.
	cmsgs [txBatchSize][cmsgWords]uint64
	runs  [txBatchSize]int
	// noGSO is set for good once the kernel refuses a UDP_SEGMENT message:
	// from then on every frame is a message of its own.
	noGSO bool
	sys   mmsgCall
}

func newTxEngine() *txEngine {
	e := &txEngine{}
	e.sys.bind(sysSENDMMSG, &e.msgs[0])
	return e
}

// send transmits up to txBatchSize frames with one sendmmsg, each run of
// equal-size frames to one endpoint as one UDP_SEGMENT message. It
// returns the frames sent, in order. A message the kernel refuses to
// segment turns GSO off and returns with no error, so that the caller
// sends the rest again; any other failure is the first unsent frame's.
func (e *txEngine) send(pc *net.UDPConn, rc syscall.RawConn, batch []txPacket) (sent, nsys int, err error) {
	batch = batch[:min(len(batch), txBatchSize)]
	nmsg := 0
	for i := 0; i < len(batch); nmsg++ {
		k := 1
		if !e.noGSO {
			k = gsoRun(batch[i:])
		}
		e.fill(nmsg, i, batch[i:i+k])
		i += k
	}
	nmsgSent, err := e.sys.run(rc, true, nmsg)
	nsys = 1
	for _, k := range e.runs[:nmsgSent] {
		sent += k
	}
	if err != nil && e.runs[0] > 1 && gsoRefused(err) {
		e.noGSO = true
		err = nil
	}
	return sent, nsys, err
}

// gsoRefused reports whether a failed UDP_SEGMENT send was the kernel
// declining to segment it (no GSO support, a route or socket setting it
// cannot segment for), rather than a failure of the frames themselves.
func gsoRefused(err error) bool {
	return errors.Is(err, syscall.EIO) || errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOPROTOOPT)
}

// fill builds message j from the frames ps, whose iovecs start at iovs[first].
func (e *txEngine) fill(j, first int, ps []txPacket) {
	iovs := e.iovs[first : first+len(ps)]
	for i, p := range ps {
		iovs[i].Base = &p.buf[0]
		iovs[i].SetLen(len(p.buf))
	}
	e.runs[j] = len(ps)
	h := &e.msgs[j].Hdr
	*h = syscall.Msghdr{Iov: &iovs[0], Iovlen: uint64(len(ps))}
	if len(ps) > 1 {
		c := &e.cmsgs[j]
		ch := (*syscall.Cmsghdr)(unsafe.Pointer(c))
		ch.Level = syscall.IPPROTO_UDP
		ch.Type = udpSegment
		ch.SetLen(syscall.CmsgLen(2))
		*(*uint16)(unsafe.Add(unsafe.Pointer(c), syscall.SizeofCmsghdr)) = uint16(len(ps[0].buf))
		h.Control = (*byte)(unsafe.Pointer(c))
		h.SetControllen(syscall.CmsgSpace(2))
	}
	ep := ps[0].ep
	addr := ep.Addr()
	if addr.Is4() || addr.Is4In6() {
		sa := &e.sa4[j]
		sa.Family = syscall.AF_INET
		sa.Addr = addr.As4()
		binary.BigEndian.PutUint16((*[2]byte)(unsafe.Pointer(&sa.Port))[:], ep.Port())
		h.Name = (*byte)(unsafe.Pointer(sa))
		h.Namelen = uint32(unsafe.Sizeof(*sa))
	} else {
		sa := &e.sa6[j]
		sa.Family = syscall.AF_INET6
		sa.Addr = addr.As16()
		binary.BigEndian.PutUint16((*[2]byte)(unsafe.Pointer(&sa.Port))[:], ep.Port())
		h.Name = (*byte)(unsafe.Pointer(sa))
		h.Namelen = uint32(unsafe.Sizeof(*sa))
	}
	e.msgs[j].Len = 0
}

type rxEngine struct {
	msgs  [rxBatchMax]mmsghdr
	iovs  [rxBatchMax]syscall.Iovec
	names [rxBatchMax]syscall.RawSockaddrAny
	cmsgs [rxBatchMax][cmsgWords]uint64
	sys   mmsgCall
}

// newRxEngine turns UDP_GRO on for the socket behind rc (a kernel without
// it just delivers every datagram alone).
func newRxEngine(rc syscall.RawConn) *rxEngine {
	rc.Control(func(fd uintptr) {
		syscall.SetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpGRO, 1)
	})
	e := &rxEngine{}
	e.sys.bind(sysRECVMMSG, &e.msgs[0])
	return e
}

// read drains up to len(bufs) (at most rxBatchMax) datagrams with one
// recvmmsg, filling sizes, UDP_GRO segment sizes (0: not coalesced) and
// source endpoints per message.
func (e *rxEngine) read(pc *net.UDPConn, rc syscall.RawConn, bufs [][]byte, sizes, segs []int, eps []netip.AddrPort) (cnt, nsys int, err error) {
	n := len(bufs)
	for i := 0; i < n; i++ {
		e.iovs[i].Base = &bufs[i][0]
		e.iovs[i].SetLen(len(bufs[i]))
		h := &e.msgs[i].Hdr
		*h = syscall.Msghdr{
			Name:    (*byte)(unsafe.Pointer(&e.names[i])),
			Namelen: uint32(unsafe.Sizeof(e.names[i])),
			Iov:     &e.iovs[i],
			Iovlen:  1,
			Control: (*byte)(unsafe.Pointer(&e.cmsgs[i])),
		}
		h.SetControllen(len(e.cmsgs[i]) * 8)
		e.msgs[i].Len = 0
	}
	cnt, err = e.sys.run(rc, false, n)
	nsys = 1
	for i := 0; i < cnt; i++ {
		sizes[i] = int(e.msgs[i].Len)
		segs[i] = 0
		// UDP_GRO is the only control message the socket asks for.
		ch := (*syscall.Cmsghdr)(unsafe.Pointer(&e.cmsgs[i]))
		if e.msgs[i].Hdr.Controllen >= uint64(syscall.CmsgLen(4)) &&
			ch.Level == syscall.IPPROTO_UDP && ch.Type == udpGRO {
			segs[i] = int(*(*int32)(unsafe.Add(unsafe.Pointer(ch), syscall.SizeofCmsghdr)))
		}
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
