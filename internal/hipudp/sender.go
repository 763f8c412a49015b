package hipudp

import (
	"net/netip"
	"sync"
)

// txPacket is one frame awaiting transmission: one datagram on the wire,
// though the Linux engine may hand a run of them to the kernel as one GSO
// message.
type txPacket struct {
	buf []byte
	ep  netip.AddrPort
}

const (
	// txBatchSize is the most frames one sender flush covers (the
	// sendmmsg vector length on Linux).
	txBatchSize = 32
	// txQueueCap bounds the backlog. Overflow drops the frame — datagram
	// semantics; blocking here would stall the protocol core, which
	// enqueues while holding the stack lock.
	txQueueCap = 1024
)

// sender is the stack's one transmit queue, drained by senderLoop: enqueue
// order is wire order. A second worker could not transmit in parallel — every
// send on the stack's one socket takes its fd write lock.
type sender struct {
	mu     sync.Mutex
	cond   sync.Cond
	queue  []txPacket
	closed bool
	done   chan struct{}
}

// enqueue queues a frame, dropping on overflow.
func (sd *sender) enqueue(s *Stack, p txPacket) {
	sd.mu.Lock()
	if sd.closed || len(sd.queue) >= txQueueCap {
		sd.mu.Unlock()
		s.stats.txDrops.Add(1)
		return
	}
	sd.queue = append(sd.queue, p)
	sd.mu.Unlock()
	sd.cond.Signal()
}

// close stops the sender after its queue drains and waits for it to exit.
func (sd *sender) close() {
	sd.mu.Lock()
	sd.closed = true
	sd.mu.Unlock()
	sd.cond.Signal()
	<-sd.done
}

// senderLoop drains the queue in sendmmsg-sized slices.
func (s *Stack) senderLoop() {
	sd := &s.sender
	defer close(sd.done)
	eng := newTxEngine()
	batch := make([]txPacket, 0, txBatchSize)
	for {
		sd.mu.Lock()
		for len(sd.queue) == 0 && !sd.closed {
			sd.cond.Wait()
		}
		if len(sd.queue) == 0 {
			sd.mu.Unlock()
			return
		}
		n := len(sd.queue)
		if n > txBatchSize {
			n = txBatchSize
		}
		batch = append(batch[:0], sd.queue[:n]...)
		rest := copy(sd.queue, sd.queue[n:])
		clear(sd.queue[rest:]) // drop buf references for GC
		sd.queue = sd.queue[:rest]
		sd.mu.Unlock()
		s.transmit(eng, batch)
	}
}

// transmit pushes one batch through the platform engine, retrying
// partial progress and folding results into the stats.
func (s *Stack) transmit(eng *txEngine, batch []txPacket) {
	for len(batch) > 0 {
		sent, nsys, err := eng.send(s.pc, s.rc, batch)
		var n uint64
		for _, p := range batch[:sent] {
			n += uint64(len(p.buf))
		}
		s.stats.txSyscalls.Add(uint64(nsys))
		s.stats.txBatches.Add(1)
		s.stats.txPackets.Add(uint64(sent))
		s.stats.txBytes.Add(n)
		batch = batch[sent:]
		if err != nil {
			// The socket refused a frame (typically: stack closing). Count
			// the failed head, then keep trying the rest — a transient
			// error must not silently discard the tail of the batch.
			s.noteTxErr(err)
			if len(batch) > 0 {
				batch = batch[1:]
			}
		}
	}
}
