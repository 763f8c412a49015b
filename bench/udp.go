package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/netip"
	"sync"
	"time"

	"hipcloud/internal/hip"
	"hipcloud/internal/hipudp"
	"hipcloud/internal/identity"
	"hipcloud/internal/keymat"
)

// All real-socket traffic crosses the host's loopback interface.
var loopback = netip.MustParseAddr("127.0.0.1")

const (
	benchPort   = 5001
	bulkChunk   = 16 << 10 // bytes per Conn.Write on the bulk workloads
	echoLen     = 64       // request and echo size on udp_rr and udp_connect
	dialTimeout = 10 * time.Second

	// patternLen is odd, so 16 KiB chunks never realign with the pattern
	// and a lost, repeated or reordered chunk fails the comparison.
	patternLen = 1<<20 + 4099
	maxWindow  = 64 << 10
)

// pattern is the seeded payload stream: byte i of a connection's stream
// is pattern[i mod patternLen]. The sender writes windows of it and the
// receiver, knowing only the seed and its own position, re-derives them.
type pattern []byte

func newPattern(seed int64) pattern {
	p := make(pattern, patternLen+maxWindow)
	rand.New(rand.NewSource(seed)).Read(p[:patternLen])
	copy(p[patternLen:], p[:maxWindow])
	return p
}

// at returns the n <= maxWindow stream bytes starting at position pos.
func (p pattern) at(pos int64, n int) []byte {
	o := int(pos % patternLen)
	return p[o : o+n]
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// udpCounters are the two sides' socket counters over one round: a is
// the dialing side (summed over initiators on udp_connect), b the
// listening side.
type udpCounters struct{ a, b hipudp.Stats }

// zipStats combines two counter sets field by field.
func zipStats(x, y hipudp.Stats, f func(a, b uint64) uint64) hipudp.Stats {
	return hipudp.Stats{
		TxPackets: f(x.TxPackets, y.TxPackets), TxBytes: f(x.TxBytes, y.TxBytes),
		TxSyscalls: f(x.TxSyscalls, y.TxSyscalls), TxBatches: f(x.TxBatches, y.TxBatches),
		TxErrors: f(x.TxErrors, y.TxErrors), TxDrops: f(x.TxDrops, y.TxDrops),
		RxPackets: f(x.RxPackets, y.RxPackets), RxBytes: f(x.RxBytes, y.RxBytes),
		RxSyscalls: f(x.RxSyscalls, y.RxSyscalls), RxBatches: f(x.RxBatches, y.RxBatches),
	}
}

func addStats(x, y hipudp.Stats) hipudp.Stats {
	return zipStats(x, y, func(a, b uint64) uint64 { return a + b })
}

func subStats(x, y hipudp.Stats) hipudp.Stats {
	return zipStats(x, y, func(a, b uint64) uint64 { return a - b })
}

// since is what both sides counted after the snapshot `before`.
func (c udpCounters) since(before udpCounters) udpCounters {
	return udpCounters{subStats(c.a, before.a), subStats(c.b, before.b)}
}

// callTimes are the durations, in µs, of the harness's calls into
// hipudp during a traced round.
type callTimes struct {
	write, read, dial, open, close []float64
}

// newStack opens a hipudp stack on loopback for a seeded identity. The
// host offers exactly one suite, so that is the one negotiated.
func newStack(name string, seed int64, suite keymat.Suite, tr *tracer, parent open) (*hipudp.Stack, *identity.HostIdentity, error) {
	id, err := identity.GenerateDeterministic(identity.AlgECDSA, fmt.Sprintf("bench/%d/%s", seed, name))
	if err != nil {
		return nil, nil, err
	}
	h, err := hip.NewHost(hip.Config{
		Identity: id,
		Locator:  loopback,
		Suites:   []keymat.Suite{suite},
		Rand:     rand.New(rand.NewSource(hostSeed(seed, name))),
	})
	if err != nil {
		return nil, nil, err
	}
	sp := tr.begin("hipudp.NewStackOpts", parent)
	s, err := hipudp.NewStackOpts(h, "127.0.0.1:0", hipudp.DefaultOptions())
	sp.end()
	return s, id, err
}

// hostSeed gives every host of a run its own puzzle, SPI and nonce stream.
func hostSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, name)
	return int64(h.Sum64())
}

func endpoint(s *hipudp.Stack) netip.AddrPort {
	return netip.AddrPortFrom(loopback, uint16(s.LocalAddr().Port))
}

// udpPair is two stacks on loopback with one established stream between
// them: conn is the dialer's end, peer the acceptor's.
type udpPair struct {
	a, b       *hipudp.Stack
	conn, peer *hipudp.Conn
	bg         sync.WaitGroup // goroutines reading peer
}

func newUDPPair(seed int64, suite keymat.Suite, tr *tracer, parent open) (*udpPair, error) {
	a, idA, err := newStack("initiator", seed, suite, tr, parent)
	if err != nil {
		return nil, err
	}
	b, idB, err := newStack("responder", seed, suite, tr, parent)
	if err != nil {
		a.Close()
		return nil, err
	}
	p := &udpPair{a: a, b: b}
	a.AddPeer(idB.HIT(), endpoint(b))
	b.AddPeer(idA.HIT(), endpoint(a))
	l, err := b.Listen(benchPort)
	if err != nil {
		p.close()
		return nil, err
	}
	type accepted struct {
		c   *hipudp.Conn
		err error
	}
	acc := make(chan accepted, 1)
	go func() {
		sp := tr.begin("hipudp.Listener.Accept", parent)
		c, err := l.Accept()
		sp.end()
		acc <- accepted{c, err}
	}()
	sp := tr.begin("hipudp.Stack.Dial", parent)
	p.conn, err = a.Dial(idB.HIT(), benchPort, dialTimeout)
	sp.end()
	if err != nil {
		p.close() // unblocks Accept
		<-acc
		return nil, fmt.Errorf("dial: %w", err)
	}
	got := <-acc
	if got.err != nil {
		p.close()
		return nil, fmt.Errorf("accept: %w", got.err)
	}
	p.peer = got.c
	return p, nil
}

func (p *udpPair) stats() udpCounters { return udpCounters{p.a.Stats(), p.b.Stats()} }

// close shuts both stacks, which fails every blocked Read and Write, and
// waits for the goroutines that were reading. It may be called twice,
// and on the nil pair of a workload whose set-up failed.
func (p *udpPair) close() {
	if p == nil {
		return
	}
	p.a.Close()
	p.b.Close()
	p.bg.Wait()
}

// pkts is how many datagrams the two sides wrote.
func (c udpCounters) pkts() int64 { return int64(c.a.TxPackets + c.b.TxPackets) }

// txFailures is how many frames the sockets refused during a round.
func (c udpCounters) txFailures() int { return int(c.a.TxErrors + c.b.TxErrors) }

func readFull(c *hipudp.Conn, b []byte) error {
	_, err := io.ReadFull(c, b)
	return err
}

// ---- udp_bulk_gcm, udp_bulk_ctr -------------------------------------

// bulkWorkload streams chunks of the pattern one way over one long-lived
// connection. An operation is one 16 KiB Write whose bytes the receiver
// read and found equal to the pattern; its latency runs from the start
// of the Write to the Read that returned its last byte.
type bulkWorkload struct {
	suite keymat.Suite
	sc    scale
	pat   pattern
	pair  *udpPair
	pos   int64 // stream position of the next chunk
}

func (w *bulkWorkload) setUp(seed int64, tr *tracer, parent open) error {
	w.pat = newPattern(seed)
	w.pos = 0
	var err error
	if w.pair, err = newUDPPair(seed, w.suite, tr, parent); err != nil {
		return err
	}
	_, err = w.round(nil, open{}) // warm-up: slow start, pools, page faults
	return err
}

func (w *bulkWorkload) tearDown() { w.pair.close() }

func (w *bulkWorkload) round(tr *tracer, root open) (roundResult, error) {
	n := w.sc.bulkChunks
	res := roundResult{ops: n, payload: int64(n) * bulkChunk}
	sendAt := make([]time.Time, n)
	recvAt := make([]time.Time, n)
	bad := make([]bool, n)
	var readCalls []float64
	recvErr := make(chan error, 1)
	start := w.pos
	w.pair.bg.Add(1)
	go func() {
		defer w.pair.bg.Done()
		recvErr <- w.receive(tr, root, start, recvAt, bad, &readCalls)
	}()

	before := w.pair.stats()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		chunk := w.pat.at(w.pos, bulkChunk)
		sendAt[i] = time.Now()
		sp := tr.begin("hipudp.Conn.Write", root)
		_, err := w.pair.conn.Write(chunk)
		if d := sp.end(); tr != nil {
			res.calls.write = append(res.calls.write, us(d))
		}
		if err != nil {
			return res, fmt.Errorf("write chunk %d: %w", i, err)
		}
		w.pos += bulkChunk
	}
	var ack [1]byte
	if err := readFull(w.pair.conn, ack[:]); err != nil {
		return res, fmt.Errorf("read ack: %w", err)
	}
	res.wall = time.Since(t0)
	if err := <-recvErr; err != nil {
		return res, err
	}
	res.udp = w.pair.stats().since(before)
	res.pkts = res.udp.pkts()
	res.calls.read = readCalls

	res.lat = make([]float64, 0, n)
	for i := range bad {
		if bad[i] {
			res.failed++
			continue
		}
		res.lat = append(res.lat, us(recvAt[i].Sub(sendAt[i])))
	}
	// A refused frame was retransmitted or the bytes would not have
	// matched, but the socket misbehaved: count it against the round.
	res.failed += res.udp.txFailures()
	return res, nil
}

// receive reads one round's bytes from the acceptor's end, compares
// every byte with the pattern at its stream position, stamps each chunk
// when its last byte arrives, and acknowledges with one byte.
func (w *bulkWorkload) receive(tr *tracer, root open, start int64, recvAt []time.Time, bad []bool, calls *[]float64) error {
	buf := make([]byte, maxWindow)
	want := len(recvAt) * bulkChunk
	for got := 0; got < want; {
		lim := want - got
		if lim > len(buf) {
			lim = len(buf)
		}
		sp := tr.begin("hipudp.Conn.Read", root)
		n, err := w.pair.peer.Read(buf[:lim])
		if d := sp.end(); tr != nil {
			*calls = append(*calls, us(d))
		}
		if err != nil {
			return fmt.Errorf("read at byte %d of %d: %w", got, want, err)
		}
		now := time.Now()
		first, last := got/bulkChunk, (got+n-1)/bulkChunk
		if !bytes.Equal(buf[:n], w.pat.at(start+int64(got), n)) {
			for i := first; i <= last; i++ {
				bad[i] = true
			}
		}
		got += n
		for i := first; i < got/bulkChunk; i++ {
			recvAt[i] = now
		}
	}
	_, err := w.pair.peer.Write([]byte{1})
	return err
}

// ---- udp_rr ----------------------------------------------------------

// rrWorkload is a closed loop of 64-byte requests, each echoed by a
// goroutine on the other stack. An operation is one round trip whose
// echo equals the request.
type rrWorkload struct {
	sc   scale
	pat  pattern
	pair *udpPair
	seq  int64
}

func (w *rrWorkload) setUp(seed int64, tr *tracer, parent open) error {
	w.pat = newPattern(seed)
	w.seq = 0
	var err error
	if w.pair, err = newUDPPair(seed, keymat.SuiteAESGCM128, tr, parent); err != nil {
		return err
	}
	w.pair.bg.Add(1)
	go func() {
		defer w.pair.bg.Done()
		echoLoop(w.pair.peer)
	}()
	_, err = w.round(nil, open{})
	return err
}

// echoLoop echoes fixed-size requests until the connection fails, which
// is how tearDown stops it.
func echoLoop(c *hipudp.Conn) {
	var buf [echoLen]byte
	for {
		if readFull(c, buf[:]) != nil {
			return
		}
		if _, err := c.Write(buf[:]); err != nil {
			return
		}
	}
}

func (w *rrWorkload) tearDown() { w.pair.close() }

// request fills msg with the seq-th request: its number, then pattern.
func (w *rrWorkload) request(msg []byte) {
	binary.BigEndian.PutUint64(msg, uint64(w.seq))
	copy(msg[8:], w.pat.at(w.seq*(echoLen-8), echoLen-8))
	w.seq++
}

func (w *rrWorkload) round(tr *tracer, root open) (roundResult, error) {
	n := w.sc.rrOps
	res := roundResult{ops: n, payload: int64(n) * 2 * echoLen, lat: make([]float64, 0, n)}
	var msg, echo [echoLen]byte
	before := w.pair.stats()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		w.request(msg[:])
		t := time.Now()
		sp := tr.begin("hipudp.Conn.Write", root)
		_, err := w.pair.conn.Write(msg[:])
		wd := sp.end()
		if err != nil {
			return res, fmt.Errorf("request %d: %w", i, err)
		}
		sp = tr.begin("hipudp.Conn.Read", root)
		err = readFull(w.pair.conn, echo[:])
		rd := sp.end()
		if err != nil {
			return res, fmt.Errorf("echo %d: %w", i, err)
		}
		took := time.Since(t)
		if tr != nil {
			res.calls.write = append(res.calls.write, us(wd))
			res.calls.read = append(res.calls.read, us(rd))
		}
		if msg != echo {
			res.failed++
			continue
		}
		res.lat = append(res.lat, us(took))
	}
	res.wall = time.Since(t0)
	res.udp = w.pair.stats().since(before)
	res.pkts = res.udp.pkts()
	res.failed += res.udp.txFailures()
	return res, nil
}

// ---- udp_connect -----------------------------------------------------

// connectWorkload dials one fresh initiator after another at a
// responder that lives for the round, so the responder's association
// table grows from 0 to sc.connects. An operation is Dial, a 64-byte
// request and its echo; the initiator's stack is opened before and
// closed after the timed part.
type connectWorkload struct {
	sc     scale
	seed   int64
	pat    pattern
	rounds int // rounds started, so no identity is reused
}

func (w *connectWorkload) setUp(seed int64, tr *tracer, parent open) error {
	w.seed = seed
	w.pat = newPattern(seed)
	// Warm-up: a tenth of a round, enough to page in the handshake code
	// and fill the pools without costing a full round of set-up time.
	_, err := w.connects(max(w.sc.connects/10, 2), tr, parent)
	return err
}

// tearDown has nothing to do: every round closes the stacks it opened.
func (w *connectWorkload) tearDown() {}

func (w *connectWorkload) round(tr *tracer, root open) (roundResult, error) {
	return w.connects(w.sc.connects, tr, root)
}

// connects dials n fresh initiators, one after another, at a fresh
// responder.
func (w *connectWorkload) connects(n int, tr *tracer, root open) (roundResult, error) {
	w.rounds++
	res := roundResult{ops: n, payload: int64(n) * 2 * echoLen, lat: make([]float64, 0, n)}
	const suite = keymat.SuiteAESGCM128
	resp, idR, err := newStack(fmt.Sprintf("responder/%d", w.rounds), w.seed, suite, tr, root)
	if err != nil {
		return res, err
	}
	l, err := resp.Listen(benchPort)
	if err != nil {
		resp.Close()
		return res, err
	}
	var servers sync.WaitGroup
	servers.Add(1)
	go func() { // accept until the responder closes; one echo per connection
		defer servers.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			servers.Add(1)
			go func() {
				defer servers.Done()
				var buf [echoLen]byte
				if readFull(c, buf[:]) == nil {
					// The initiator's compare catches a lost echo.
					_, _ = c.Write(buf[:])
				}
			}()
		}
	}()
	defer func() {
		resp.Close()
		servers.Wait()
	}()

	epR := endpoint(resp)
	before := resp.Stats()
	t0 := time.Now()
	var msg, echo [echoLen]byte
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("initiator/%d/%d", w.rounds, i)
		sp := tr.begin("open initiator", root)
		ini, _, err := newStack(name, w.seed, suite, tr, sp)
		od := sp.end()
		if err != nil {
			return res, err
		}
		ini.AddPeer(idR.HIT(), epR)
		binary.BigEndian.PutUint64(msg[:], uint64(i))
		copy(msg[8:], w.pat.at(int64(w.rounds*n+i)*(echoLen-8), echoLen-8))

		t := time.Now()
		sp = tr.begin("hipudp.Stack.Dial", root)
		c, err := ini.Dial(idR.HIT(), benchPort, dialTimeout)
		dd := sp.end()
		var wd, rd time.Duration
		if err == nil {
			sp = tr.begin("hipudp.Conn.Write", root)
			_, err = c.Write(msg[:])
			wd = sp.end()
		}
		if err == nil {
			sp = tr.begin("hipudp.Conn.Read", root)
			err = readFull(c, echo[:])
			rd = sp.end()
		}
		took := time.Since(t)

		sp = tr.begin("hipudp.Stack.Close", root)
		if c != nil {
			c.Close()
		}
		ini.Close()
		cd := sp.end()
		st := ini.Stats()
		res.udp.a = addStats(res.udp.a, st)
		if tr != nil {
			res.calls.open = append(res.calls.open, us(od))
			res.calls.dial = append(res.calls.dial, us(dd))
			res.calls.write = append(res.calls.write, us(wd))
			res.calls.read = append(res.calls.read, us(rd))
			res.calls.close = append(res.calls.close, us(cd))
		}
		if err != nil || msg != echo || st.TxErrors != 0 {
			res.failed++
			continue
		}
		res.lat = append(res.lat, us(took))
	}
	res.wall = time.Since(t0)
	res.udp.b = subStats(resp.Stats(), before)
	res.pkts = res.udp.pkts()
	res.failed += int(res.udp.b.TxErrors)
	return res, nil
}
