// Buffer pooling for packet bodies.
//
// Every hop in the simulator (and the real-UDP drivers) used to allocate
// fresh byte slices for packet payloads, wire segments and crypto output;
// at Fig. 2/3 scale that is millions of short-lived allocations per run.
// GetBuf/PutBuf recycle those bodies through sync.Pools in a few size
// classes covering the common cases: small control messages, MTU-sized
// packets, TCP segments up to the stream layer's windows, and 64 KiB
// datagram-max bodies.
//
// The pool stores *[N]byte array pointers rather than slices: pointer
// types are direct interface values, so Put and Get themselves do not
// allocate (a []byte in an interface{} would heap-box the slice header
// on every Put, defeating the point).
//
// Ownership contract: a buffer passed to PutBuf must have no other live
// references — putting a buffer twice, or putting while a reader still
// holds a sub-slice, corrupts unrelated packets later. Dropping a buffer
// without PutBuf is always safe (the GC reclaims it); when in doubt,
// leak rather than double-put.
package netsim

import "sync"

// Pool size classes in bytes. A buffer in pool i has capacity >= classes[i].
const (
	classSmall = 512
	classMTU   = 2048
	classSeg   = 16384
	classMax   = 65536
)

var (
	poolSmall = sync.Pool{New: func() interface{} { return new([classSmall]byte) }}
	poolMTU   = sync.Pool{New: func() interface{} { return new([classMTU]byte) }}
	poolSeg   = sync.Pool{New: func() interface{} { return new([classSeg]byte) }}
	poolMax   = sync.Pool{New: func() interface{} { return new([classMax]byte) }}
)

// GetBuf returns a length-n buffer from the smallest size class that fits,
// or a fresh allocation for oversized requests. Contents are undefined.
func GetBuf(n int) []byte {
	switch {
	case n <= classSmall:
		return poolSmall.Get().(*[classSmall]byte)[:n]
	case n <= classMTU:
		return poolMTU.Get().(*[classMTU]byte)[:n]
	case n <= classSeg:
		return poolSeg.Get().(*[classSeg]byte)[:n]
	case n <= classMax:
		return poolMax.Get().(*[classMax]byte)[:n]
	default:
		return make([]byte, n)
	}
}

// PutBuf recycles a buffer obtained from GetBuf (or anywhere else) into
// the largest size class its capacity supports. Sub-slices of pooled
// buffers are accepted: capacity, not length, decides the class, and a
// shortened buffer simply rejoins a smaller class. Buffers below the
// smallest class are left to the GC. The caller must own b exclusively.
func PutBuf(b []byte) {
	c := cap(b)
	switch {
	case c >= classMax:
		poolMax.Put((*[classMax]byte)(b[:classMax:c]))
	case c >= classSeg:
		poolSeg.Put((*[classSeg]byte)(b[:classSeg:c]))
	case c >= classMTU:
		poolMTU.Put((*[classMTU]byte)(b[:classMTU:c]))
	case c >= classSmall:
		poolSmall.Put((*[classSmall]byte)(b[:classSmall:c]))
	}
}
