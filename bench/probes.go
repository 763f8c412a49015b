package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"time"

	"hipcloud/internal/esp"
	"hipcloud/internal/hip"
	"hipcloud/internal/hipwire"
	"hipcloud/internal/identity"
	"hipcloud/internal/keymat"
	"hipcloud/internal/puzzle"
	"hipcloud/internal/stream"
)

// A replay probe drives one layer alone, through its public functions,
// with inputs sized from the traced rounds, for a fixed slice of host
// time. Each is recorded as a span.

// timeLoop calls fn, which does `batch` operations per call, until
// budget has passed, and returns the mean ns per operation.
func timeLoop(budget time.Duration, batch int, fn func()) float64 {
	ops := 0
	start := time.Now()
	for {
		fn()
		ops += batch
		if d := time.Since(start); d >= budget {
			return float64(d.Nanoseconds()) / float64(ops)
		}
	}
}

// espKeys builds fixed keys of the suite's lengths.
func espKeys(s keymat.Suite) (enc, auth []byte) {
	return bytes.Repeat([]byte{0x17}, must(s.EncKeyLen())), bytes.Repeat([]byte{0x2B}, must(s.AuthKeyLen()))
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err) // a probe's inputs are fixed; failing is a harness bug
	}
	return v
}

const espRing = 1024 // pre-sealed packets an open probe cycles through

// espCosts is ns per packet through one suite at one payload size.
type espCosts struct{ seal, open, sealBatch, openBatch float64 }

// espProbe seals size-byte payloads on one outbound SA, and opens a ring
// of pre-sealed packets through fresh inbound SAs so the replay window
// never rejects one; the batch forms take 32 packets per call.
func espProbe(s keymat.Suite, size int, budget time.Duration) espCosts {
	enc, auth := espKeys(s)
	payload := bytes.Repeat([]byte{0x5A}, size)
	out := must(esp.NewOutbound(1, s, enc, auth))
	dst := make([]byte, 0, out.SealedLen(size))
	var c espCosts
	c.seal = timeLoop(budget, 256, func() {
		for i := 0; i < 256; i++ {
			dst = must(out.SealAppend(dst[:0], payload))
		}
	})

	const batch = 32
	payloads := make([][]byte, batch)
	dsts := make([][]byte, batch)
	for i := range payloads {
		payloads[i] = payload
		dsts[i] = make([]byte, 0, out.SealedLen(size))
	}
	c.sealBatch = timeLoop(budget, batch, func() {
		for i := range dsts {
			dsts[i] = dsts[i][:0]
		}
		must(out.SealBatch(dsts, payloads))
	})

	ringOut := must(esp.NewOutbound(2, s, enc, auth))
	pkts := make([][]byte, espRing)
	for i := range pkts {
		pkts[i] = must(ringOut.Seal(payload))
	}
	plain := make([]byte, 0, size+64)
	c.open = timeLoop(budget, espRing, func() {
		in := must(esp.NewInbound(2, s, enc, auth))
		for _, p := range pkts {
			plain = must(in.OpenAppend(plain[:0], p))
		}
	})
	plains := make([][]byte, batch)
	for i := range plains {
		plains[i] = make([]byte, 0, size+64)
	}
	c.openBatch = timeLoop(budget, espRing, func() {
		in := must(esp.NewInbound(2, s, enc, auth))
		for off := 0; off < espRing; off += batch {
			for i := range plains {
				plains[i] = plains[i][:0]
			}
			if drops := in.OpenBatch(plains, pkts[off:off+batch]); drops != 0 {
				panic(fmt.Sprintf("esp probe: OpenBatch dropped %d of its own packets", drops))
			}
		}
	})
	return c
}

// suiteThroughput is the BENCH_DATAPLANE.json table: seal and open GB/s
// per suite at a 1400-byte payload.
func suiteThroughput(m metrics, budget time.Duration) {
	const size = 1400
	for _, s := range suiteTable {
		c := espProbe(s, size, budget)
		m["esp.seal_gb_s."+s.String()] = size / c.seal
		m["esp.open_gb_s."+s.String()] = size / c.open
	}
}

// streamCosts is what the stream layer alone costs for a traffic shape.
type streamCosts struct {
	nsPerPkt        float64 // per segment either side emitted
	dataSegs, acks  int
	bytes           int64
	marshalParseNs  float64 // Marshal + ParseSegment of one full segment
	meanDataPayload float64
}

// streamProbe joins two sans-io stream.Conns in memory with no delay and
// moves the workload's traffic shape through Write/Poll/Marshal/
// ParseSegment/OnSegment/Read: one-way writes of writeSize, or, with
// echo, each write answered by one of the same size.
func streamProbe(writeSize int, echo bool, budget time.Duration) streamCosts {
	a, b := stream.New(stream.Config{}, 1), stream.New(stream.Config{}, 2)
	var now time.Duration
	var c streamCosts
	// move delivers everything from polled on to the other side.
	move := func(from, to *stream.Conn) bool {
		segs, _ := from.Poll(now)
		for _, seg := range segs {
			if len(seg.Payload) > 0 {
				c.dataSegs++
				c.bytes += int64(len(seg.Payload))
			} else {
				c.acks++
			}
			parsed := must(stream.ParseSegment(seg.Marshal()))
			to.OnSegment(parsed, now)
		}
		return len(segs) > 0
	}
	settle := func() {
		for move(a, b) || move(b, a) {
			now += time.Microsecond
		}
	}
	buf := make([]byte, maxWindow)
	drain := func(c *stream.Conn) {
		for {
			n, _ := c.Read(buf)
			if n == 0 {
				return
			}
			c.MaybeWindowUpdate()
		}
	}
	send := func(from, to *stream.Conn, msg []byte) {
		for len(msg) > 0 {
			n, err := from.Write(msg)
			if err != nil {
				panic(err)
			}
			msg = msg[n:]
			settle()
			drain(to)
			settle()
		}
	}
	a.Open(now)
	settle()
	if !a.Established() || !b.Established() {
		panic("stream probe: handshake did not complete in memory")
	}
	c.dataSegs, c.acks, c.bytes = 0, 0, 0 // the handshake is not traffic

	msg := bytes.Repeat([]byte{0xA5}, writeSize)
	start := time.Now()
	for time.Since(start) < budget {
		for i := 0; i < 16; i++ {
			send(a, b, msg)
			if echo {
				send(b, a, msg)
			}
		}
	}
	c.nsPerPkt = float64(time.Since(start).Nanoseconds()) / float64(c.dataSegs+c.acks)
	c.meanDataPayload = float64(c.bytes) / float64(c.dataSegs)

	seg := stream.Segment{Flags: stream.FlagACK, Seq: 1, Ack: 2, Window: 1 << 16, Payload: msg[:min(writeSize, stream.DefaultMSS)]}
	c.marshalParseNs = timeLoop(budget/4, 64, func() {
		for i := 0; i < 64; i++ {
			must(stream.ParseSegment(seg.Marshal()))
		}
	})
	return c
}

var (
	probeLocI = netip.MustParseAddr("10.0.0.1")
	probeLocR = netip.MustParseAddr("10.0.0.2")
)

func probeHost(name string, seed int64, loc netip.Addr, suite keymat.Suite) *hip.Host {
	return must(hip.NewHost(hip.Config{
		Identity: must(identity.GenerateDeterministic(identity.AlgECDSA, fmt.Sprintf("bench/%d/probe/%s", seed, name))),
		Locator:  loc,
		Suites:   []keymat.Suite{suite},
		Rand:     rand.New(rand.NewSource(hostSeed(seed, "probe/"+name))),
	}))
}

// bexCosts is one sans-io base exchange: the time each host spent in
// Connect/OnPacket, and the control packets that crossed.
type bexCosts struct {
	initiator, responder time.Duration
	packets              [][]byte
}

// bex runs Connect on ini and shuttles Outgoing into OnPacket both ways
// until the association is ESTABLISHED on both hosts. No socket, no
// timer: what is left is parsing, the puzzle, signatures, DH and keymat.
func bex(ini, resp *hip.Host, iniLoc, respLoc netip.Addr) bexCosts {
	var c bexCosts
	t := time.Now()
	if err := ini.Connect(resp.HIT(), respLoc, 0); err != nil {
		panic(err)
	}
	c.initiator += time.Since(t)
	for moved := true; moved; {
		moved = false
		for _, op := range ini.Outgoing() {
			c.packets = append(c.packets, op.Data)
			t := time.Now()
			resp.OnPacket(op.Data, iniLoc, 0)
			c.responder += time.Since(t)
			moved = true
		}
		for _, op := range resp.Outgoing() {
			c.packets = append(c.packets, op.Data)
			t := time.Now()
			ini.OnPacket(op.Data, respLoc, 0)
			c.initiator += time.Since(t)
			moved = true
		}
	}
	for _, pair := range [][2]*hip.Host{{ini, resp}, {resp, ini}} {
		if a, ok := pair[0].Association(pair[1].HIT()); !ok || a.State() != hip.Established {
			panic("bex probe: base exchange did not reach ESTABLISHED")
		}
	}
	ini.Events()
	resp.Events()
	return c
}

// hipProbes measures the control plane under udp_connect without a
// socket: mean base-exchange cost over fresh pairs, the wire codec over
// the captured packets, the per-association timer scan, the association
// lookup in front of esp on the data path, and the primitives beneath.
func hipProbes(m metrics, seed int64, suite keymat.Suite, sealSize int, sc scale) {
	var n int
	var ini, resp time.Duration
	var wire int
	var last bexCosts
	var hI, hR *hip.Host
	for start := time.Now(); time.Since(start) < sc.probe || n == 0; n++ {
		hI = probeHost(fmt.Sprintf("i%d", n), seed, probeLocI, suite)
		hR = probeHost(fmt.Sprintf("r%d", n), seed, probeLocR, suite)
		last = bex(hI, hR, probeLocI, probeLocR)
		ini += last.initiator
		resp += last.responder
		wire = 0
		for _, p := range last.packets {
			wire += len(p)
		}
	}
	m["hip.bex_initiator_ms"] = ini.Seconds() * 1e3 / float64(n)
	m["hip.bex_responder_ms"] = resp.Seconds() * 1e3 / float64(n)
	m["hip.bex_cpu_ms"] = (ini + resp).Seconds() * 1e3 / float64(n)
	m["hip.bex_wire_bytes"] = float64(wire)

	parsed := make([]*hipwire.Packet, len(last.packets))
	m["hipwire.parse_ns_per_bex"] = timeLoop(sc.probe/4, 1, func() {
		for i, p := range last.packets {
			parsed[i] = must(hipwire.Parse(p))
		}
	})
	m["hipwire.marshal_ns_per_bex"] = timeLoop(sc.probe/4, 1, func() {
		for _, p := range parsed {
			p.Marshal()
		}
	})

	// The last pair is established: SealDataAppend is the association
	// lookup plus esp's seal. The two are timed in alternating blocks on
	// the same payload so that drift cancels in the difference, which is
	// a few tens of ns and comes out negative when noise exceeds it.
	payload := bytes.Repeat([]byte{0x5A}, sealSize)
	enc, auth := espKeys(suite)
	bare := must(esp.NewOutbound(1, suite, enc, auth))
	dst := make([]byte, 0, bare.SealedLen(sealSize))
	var withLookup, without time.Duration
	blocks := 0
	for start := time.Now(); time.Since(start) < sc.probe/2; blocks++ {
		t := time.Now()
		for i := 0; i < 256; i++ {
			dst, _ = must2(hI.SealDataAppend(dst[:0], hR.HIT(), payload, false))
		}
		withLookup += time.Since(t)
		t = time.Now()
		for i := 0; i < 256; i++ {
			dst = must(bare.SealAppend(dst[:0], payload))
		}
		without += time.Since(t)
	}
	m["hip.seal_data_ns_per_pkt"] = float64((withLookup - without).Nanoseconds()) / float64(256*blocks)

	// One responder holding sc.assocs established associations, none
	// with a deadline armed: the scan is all OnTimer and NextDeadline do.
	hub := probeHost("hub", seed, probeLocR, suite)
	for i := 0; i < sc.assocs; i++ {
		bex(probeHost(fmt.Sprintf("spoke%d", i), seed, probeLocI, suite), hub, probeLocI, probeLocR)
	}
	m["hip.ontimer_ns_per_assoc"] = timeLoop(sc.probe/2, 1, func() {
		hub.OnTimer(time.Hour)
		hub.NextDeadline()
	}) / float64(sc.assocs)

	k := puzzle.DefaultDifficulty.K(0) // what an idle responder asks for
	hitI, hitR := hI.HIT(), hR.HIT()
	var solves, attempts uint64
	var j uint64
	solveNs := timeLoop(sc.probe/4, 1, func() {
		var a uint64
		j, a = must2(puzzle.Solve(solves, k, hitI, hitR, uint64(seed)+solves))
		attempts += a
		solves++
	})
	m["puzzle.solve_ms_mean"] = solveNs / 1e6
	m["puzzle.solve_attempts_mean"] = float64(attempts) / float64(solves)
	m["puzzle.verify_ns"] = timeLoop(sc.probe/4, 1, func() {
		if !puzzle.Verify(solves-1, k, hitI, hitR, j) {
			panic("puzzle probe: Verify rejects Solve's answer")
		}
	})

	id := hI.Identity()
	pub := id.Public()
	msg := last.packets[1] // an R1: the size of what gets signed
	var sig []byte
	m["identity.sign_us"] = timeLoop(sc.probe/4, 1, func() { sig = must(id.Sign(msg)) }) / 1e3
	m["identity.verify_us"] = timeLoop(sc.probe/4, 1, func() {
		if err := pub.Verify(msg, sig); err != nil {
			panic(err)
		}
	}) / 1e3
	secret := bytes.Repeat([]byte{0x42}, 32)
	m["keymat.derive_us"] = timeLoop(sc.probe/4, 1, func() {
		must(keymat.DeriveAssociation(keymat.New(secret, hitI, hitR, 1, 2), suite, true))
	}) / 1e3
}

func must2[A, B any](a A, b B, err error) (A, B) {
	if err != nil {
		panic(err)
	}
	return a, b
}

// rawUDP is the kernel floor under hipudp: plain net.UDPConn datagrams
// over loopback, one syscall each way per packet.
type rawUDP struct {
	cpuNsPerPkt float64 // one-way, size bytes, process CPU per datagram delivered
	rttP50Us    float64 // 64-byte ping-pong between two goroutines
}

func rawUDPProbe(size int, budget time.Duration) (rawUDP, error) {
	var out rawUDP
	rx, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return out, err
	}
	defer rx.Close()
	tx, err := net.DialUDP("udp", nil, rx.LocalAddr().(*net.UDPAddr))
	if err != nil {
		return out, err
	}
	defer tx.Close()

	// One-way: at most `window` datagrams in flight, so the receive
	// buffer never overflows and every datagram sent is one delivered. A
	// one-byte datagram ends it.
	const window = 64
	credit := make(chan struct{}, window)
	done := make(chan error, 1)
	rx.SetReadDeadline(time.Now().Add(budget + 5*time.Second))
	go func() {
		buf := make([]byte, maxWindow)
		for {
			n, _, err := rx.ReadFromUDPAddrPort(buf)
			if err != nil || n == 1 {
				done <- err
				return
			}
			<-credit
		}
	}()
	payload := bytes.Repeat([]byte{0x5A}, size)
	before := snapProc()
	sent := 0
	var werr error
	for start := time.Now(); time.Since(start) < budget && werr == nil; sent++ {
		credit <- struct{}{}
		_, werr = tx.Write(payload)
	}
	if werr == nil {
		_, werr = tx.Write([]byte{0})
	}
	if werr != nil {
		rx.Close() // stops the reader
		<-done
		return out, werr
	}
	if err := <-done; err != nil {
		return out, fmt.Errorf("raw UDP probe: %w", err)
	}
	d := before.until(snapProc())
	out.cpuNsPerPkt = float64(d.cpu().Nanoseconds()) / float64(sent)

	// Ping-pong: rx echoes whatever tx sends.
	rx.SetReadDeadline(time.Time{})
	echoDone := make(chan struct{})
	go func() {
		defer close(echoDone)
		buf := make([]byte, echoLen)
		for {
			n, from, err := rx.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			rx.WriteToUDPAddrPort(buf[:n], from)
		}
	}()
	var rtts []float64
	ping := make([]byte, echoLen)
	for start := time.Now(); time.Since(start) < budget; {
		t := time.Now()
		tx.SetReadDeadline(t.Add(time.Second))
		if _, err := tx.Write(ping); err != nil {
			return out, err
		}
		if _, err := tx.Read(ping); err != nil {
			return out, fmt.Errorf("raw UDP ping: %w", err)
		}
		rtts = append(rtts, us(time.Since(t)))
	}
	out.rttP50Us = percentile(rtts, 50)
	rx.Close()
	<-echoDone
	return out, nil
}
