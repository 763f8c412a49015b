package hipudp

import (
	"hash/maphash"
	"net/netip"
	"sync"
)

// txPacket is one framed datagram awaiting transmission.
type txPacket struct {
	buf []byte
	ep  netip.AddrPort
}

const (
	// txShards is the number of sender workers per stack.
	txShards = 2
	// txBatchSize is the most datagrams one sender flush covers (the
	// sendmmsg vector length on Linux).
	txBatchSize = 32
	// txQueueCap bounds each shard's backlog. Overflow drops the frame —
	// datagram semantics; blocking here would stall the protocol core,
	// which enqueues while holding the stack lock.
	txQueueCap = 1024
)

// sender fans outgoing frames across per-destination worker shards.
// The stack keys shards by UDP endpoint: hipudp installs one ESP SA
// pair per peer and one endpoint per peer, so endpoint sharding IS
// per-SA sharding — packets of one association always traverse the
// same queue and stay ordered, while different associations transmit
// concurrently and amortize syscalls via sendmmsg batching.
type sender struct {
	shards []*senderShard
	seed   maphash.Seed
	wg     sync.WaitGroup
}

type senderShard struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []txPacket
	closed bool
}

func newSender(s *Stack) *sender {
	sd := &sender{
		shards: make([]*senderShard, txShards),
		seed:   maphash.MakeSeed(),
	}
	for i := range sd.shards {
		sh := &senderShard{}
		sh.cond = sync.NewCond(&sh.mu)
		sd.shards[i] = sh
		sd.wg.Add(1)
		go func() {
			defer sd.wg.Done()
			s.senderLoop(sh)
		}()
	}
	return sd
}

// shardFor hashes the destination endpoint to a shard.
func (sd *sender) shardFor(ep netip.AddrPort) *senderShard {
	var h maphash.Hash
	h.SetSeed(sd.seed)
	b := ep.Addr().As16()
	h.Write(b[:])
	h.WriteByte(byte(ep.Port() >> 8))
	h.WriteByte(byte(ep.Port()))
	return sd.shards[h.Sum64()%uint64(len(sd.shards))]
}

// enqueue hands a frame to its shard, dropping on overflow.
func (sd *sender) enqueue(s *Stack, p txPacket) {
	sh := sd.shardFor(p.ep)
	sh.mu.Lock()
	if sh.closed || len(sh.queue) >= txQueueCap {
		sh.mu.Unlock()
		s.stats.txDrops.Add(1)
		return
	}
	sh.queue = append(sh.queue, p)
	sh.mu.Unlock()
	sh.cond.Signal()
}

// close stops all shards after their queues drain and waits for the
// workers to exit.
func (sd *sender) close() {
	for _, sh := range sd.shards {
		sh.mu.Lock()
		sh.closed = true
		sh.mu.Unlock()
		sh.cond.Broadcast()
	}
	sd.wg.Wait()
}

// senderLoop drains one shard's queue in sendmmsg-sized slices.
func (s *Stack) senderLoop(sh *senderShard) {
	eng := newTxEngine()
	batch := make([]txPacket, 0, txBatchSize)
	for {
		sh.mu.Lock()
		for len(sh.queue) == 0 && !sh.closed {
			sh.cond.Wait()
		}
		if len(sh.queue) == 0 && sh.closed {
			sh.mu.Unlock()
			return
		}
		n := len(sh.queue)
		if n > txBatchSize {
			n = txBatchSize
		}
		batch = append(batch[:0], sh.queue[:n]...)
		rest := copy(sh.queue, sh.queue[n:])
		clear(sh.queue[rest:]) // drop buf references for GC
		sh.queue = sh.queue[:rest]
		sh.mu.Unlock()
		s.transmit(eng, batch)
	}
}

// transmit pushes one batch through the platform engine, retrying
// partial progress and folding results into the stats.
func (s *Stack) transmit(eng *txEngine, batch []txPacket) {
	for len(batch) > 0 {
		sent, nsys, err := eng.send(s.pc, s.rc, batch)
		s.stats.txSyscalls.Add(uint64(nsys))
		s.stats.txBatches.Add(1)
		for _, p := range batch[:sent] {
			s.stats.txPackets.Add(1)
			s.stats.txBytes.Add(uint64(len(p.buf)))
		}
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
