package hipudp

import "sync/atomic"

// ioStats counts data-plane socket work. All fields are atomics: the
// sender and the read loop update them without taking the stack lock.
type ioStats struct {
	txPackets  atomic.Uint64
	txBytes    atomic.Uint64
	txSyscalls atomic.Uint64
	txBatches  atomic.Uint64
	txErrors   atomic.Uint64
	txDrops    atomic.Uint64
	rxPackets  atomic.Uint64
	rxBytes    atomic.Uint64
	rxSyscalls atomic.Uint64
	rxBatches  atomic.Uint64
}

// Stats is a point-in-time copy of the stack's socket counters.
type Stats struct {
	// TxPackets/TxBytes count datagrams (frames) actually written.
	TxPackets, TxBytes uint64
	// TxSyscalls counts send syscalls; with sendmmsg batching it grows
	// slower than TxPackets — TxSyscalls/TxPackets is the benchmark's
	// hipudp.tx_syscalls_per_pkt.
	TxSyscalls uint64
	// TxBatches counts sender flushes (each covering >=1 packet).
	TxBatches uint64
	// TxErrors counts frames the socket refused (write error or short
	// write). The first such error is retained and exposed via TxErr.
	TxErrors uint64
	// TxDrops counts frames dropped because the sender's queue was
	// full (datagram semantics: drop, don't block the protocol core). A
	// closed stack enqueues nothing, so shutdown is not counted as loss.
	TxDrops uint64
	// Rx counters mirror the Tx ones for the read side.
	RxPackets, RxBytes, RxSyscalls, RxBatches uint64
}

// Stats returns a snapshot of the stack's socket counters.
func (s *Stack) Stats() Stats {
	return Stats{
		TxPackets:  s.stats.txPackets.Load(),
		TxBytes:    s.stats.txBytes.Load(),
		TxSyscalls: s.stats.txSyscalls.Load(),
		TxBatches:  s.stats.txBatches.Load(),
		TxErrors:   s.stats.txErrors.Load(),
		TxDrops:    s.stats.txDrops.Load(),
		RxPackets:  s.stats.rxPackets.Load(),
		RxBytes:    s.stats.rxBytes.Load(),
		RxSyscalls: s.stats.rxSyscalls.Load(),
		RxBatches:  s.stats.rxBatches.Load(),
	}
}

// TxErr returns the first socket write error the stack observed (nil if
// none). Sends are asynchronous, so errors surface here and in
// Stats().TxErrors rather than from Conn.Write.
func (s *Stack) TxErr() error {
	s.txErrMu.Lock()
	defer s.txErrMu.Unlock()
	return s.txErr
}

// noteTxErr records the first write failure and counts every one.
func (s *Stack) noteTxErr(err error) {
	s.stats.txErrors.Add(1)
	s.txErrMu.Lock()
	if s.txErr == nil {
		s.txErr = err
	}
	s.txErrMu.Unlock()
}
