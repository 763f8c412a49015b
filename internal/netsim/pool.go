// Buffer pooling for packet bodies.
//
// GetBuf/PutBuf recycle the simulator's packet payloads, wire segments
// and crypto output through sync.Pools in four size classes: control
// messages, MTU-sized packets, stream segments and 64 KiB datagrams. At
// Fig. 2/3 scale that saves millions of short-lived allocations a run.
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
// leak rather than double-put. Test binaries referee this (poolLedger).
package netsim

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// Pool size classes in bytes. A buffer in pool i has capacity >= classes[i].
const (
	classSmall = 512
	classMTU   = 2048
	classSeg   = 16384
	classMax   = 65536
)

var (
	poolSmall = sync.Pool{New: slab[[classSmall]byte]}
	poolMTU   = sync.Pool{New: slab[[classMTU]byte]}
	poolSeg   = sync.Pool{New: slab[[classSeg]byte]}
	poolMax   = sync.Pool{New: slab[[classMax]byte]}
)

// slab allocates one pool array. Test binaries track its base address
// until a finalizer forgets it, before the GC can reuse the address.
func slab[A any]() interface{} {
	p := new(A)
	if ledger != nil {
		ledger.add(uintptr(unsafe.Pointer(p)))
		runtime.SetFinalizer(p, func(p *A) { ledger.forget(uintptr(unsafe.Pointer(p))) })
	}
	return p
}

// GetBuf returns a length-n buffer from the smallest size class that fits,
// or a fresh allocation for oversized requests. Contents are undefined.
func GetBuf(n int) []byte {
	var b []byte
	switch {
	case n <= classSmall:
		b = poolSmall.Get().(*[classSmall]byte)[:n]
	case n <= classMTU:
		b = poolMTU.Get().(*[classMTU]byte)[:n]
	case n <= classSeg:
		b = poolSeg.Get().(*[classSeg]byte)[:n]
	case n <= classMax:
		b = poolMax.Get().(*[classMax]byte)[:n]
	default:
		return make([]byte, n)
	}
	if ledger != nil {
		ledger.get(b)
	}
	return b
}

// PutBuf recycles a buffer obtained from GetBuf (or anywhere else) into
// the largest size class its capacity supports. Sub-slices of pooled
// buffers are accepted: capacity, not length, decides the class, and a
// shortened buffer simply rejoins a smaller class. Buffers below the
// smallest class are left to the GC. The caller must own b exclusively.
// Test binaries pool only whole slabs the pools made and leave any other
// buffer to the GC, so every buffer GetBuf hands out there is counted.
func PutBuf(b []byte) {
	if ledger != nil {
		// Inside the guard's body, not its condition: hiplint's hot set
		// leaves out only what a nil-guarded body calls.
		if !ledger.put(b) {
			return
		}
	}
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

// PoolOutstanding reports how many pooled buffers GetBuf handed out that
// PutBuf has not taken back whole. A loss-free run that completes brings
// it back to its starting value. Outside test binaries it is always 0.
func PoolOutstanding() int {
	if ledger == nil {
		return 0
	}
	ledger.mu.Lock()
	defer ledger.mu.Unlock()
	return ledger.out
}

// ledger is non-nil only in test binaries.
var ledger *poolLedger

// poolLedger knows every slab the pools' New made, by base address. A
// PutBuf of a pooled slab panics: a double put, or a put while another
// reference was live. Every recycled buffer is overwritten with 0xA5, so
// a stale alias reads garbage. A foreign or offset PutBuf is legal but is
// not a return, so it shows in PoolOutstanding as a leak does, and the
// buffer stays out of the pool: handed out by a later GetBuf, it would
// not be counted.
type poolLedger struct {
	mu     sync.Mutex
	pooled map[uintptr]bool // slab base → in a pool now
	out    int              // slabs handed out minus slabs returned whole
	poison []byte
}

func init() {
	if testing.Testing() {
		ledger = &poolLedger{pooled: make(map[uintptr]bool), poison: bytes.Repeat([]byte{0xA5}, classMax)}
	}
}

func (l *poolLedger) add(base uintptr) {
	l.mu.Lock()
	l.pooled[base] = true
	l.mu.Unlock()
}

func (l *poolLedger) forget(base uintptr) {
	l.mu.Lock()
	delete(l.pooled, base)
	l.mu.Unlock()
}

func (l *poolLedger) get(b []byte) {
	base := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	l.mu.Lock()
	if l.pooled[base] {
		l.pooled[base] = false
		l.out++
	}
	l.mu.Unlock()
}

// put poisons b and reports whether it is a slab the pools made, taken
// back whole.
func (l *poolLedger) put(b []byte) bool {
	base := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	l.mu.Lock()
	pooled, known := l.pooled[base]
	if known && !pooled {
		l.pooled[base] = true
		l.out--
	}
	l.mu.Unlock()
	if pooled {
		panic("netsim: PutBuf of a buffer already in the pool: a double put, or a put while another reference was live")
	}
	copy(b[:cap(b)], l.poison)
	return known
}
