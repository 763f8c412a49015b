package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"hipcloud/internal/cloud"
	"hipcloud/internal/experiments"
	"hipcloud/internal/hip"
	"hipcloud/internal/hipsim"
	"hipcloud/internal/identity"
	"hipcloud/internal/microhttp"
	"hipcloud/internal/netsim"
	"hipcloud/internal/rubis"
	"hipcloud/internal/secio"
	"hipcloud/internal/simtcp"
	"hipcloud/internal/tlslite"
	simload "hipcloud/internal/workload"
)

var simKinds = []secio.Kind{secio.Basic, secio.HIP, secio.SSL}

// simPoint is one (scenario, clients) cell of Figure 2: the virtual
// results, the host time it took, and, on a traced round, the counters
// the deployment's layers export.
type simPoint struct {
	throughput float64       // virtual req/s
	meanRT     time.Duration // virtual
	errors     int
	completed  int
	host       time.Duration

	// Traced rounds only.
	events           uint64
	pkts, bytes      uint64     // transmitted by the five tiers' nodes
	util             [3]float64 // lb, web, db: busy core-time / (cores x virtual time)
	served, proxyErr uint64
	proxyP50         time.Duration
	retransmits      uint64
	ctlShed          uint64
}

// virtual is what must repeat bit for bit for one seed.
type virtual struct {
	throughput float64
	meanRT     time.Duration
	events     uint64 // 0 until a traced round has counted them
}

// simWorkload runs RUBiS behind the proxy in the simulator, once per
// scenario per round. An operation is one simulated request completed
// after the warm-up; its "latency" is the host time the point took
// divided by the requests it completed, so op_p50_us is the middle
// scenario's cost per request and op_p99_us the dearest's.
type simWorkload struct {
	sc   scale
	seed int64
	// first holds round one's virtual results: the simulator is
	// deterministic per seed, so every later round must match them.
	first map[secio.Kind]*virtual
}

func (w *simWorkload) fig2(warmup, measure time.Duration) experiments.Fig2Config {
	return experiments.Fig2Config{
		Profile:  cloud.EC2,
		Duration: warmup + measure,
		Warmup:   warmup,
		Seed:     w.seed,
	}
}

// setUp pays what the first point of a seed pays: deriving the tiers'
// deterministic RSA identities (cached afterwards), plus a short point
// per scenario to warm the pools.
func (w *simWorkload) setUp(seed int64, tr *tracer, parent open) error {
	w.seed = seed
	w.first = map[secio.Kind]*virtual{}
	for _, k := range simKinds {
		sp := tr.begin("experiments.RunFig2Point "+k.String(), parent)
		pt := experiments.RunFig2Point(w.fig2(500*time.Millisecond, 500*time.Millisecond), k, w.sc.simClients)
		sp.end()
		if pt.Errors != 0 {
			return fmt.Errorf("warm-up %v point: %d request errors", k, pt.Errors)
		}
	}
	return nil
}

func (w *simWorkload) tearDown() {}

func (w *simWorkload) round(tr *tracer, root open) (roundResult, error) {
	var res roundResult
	t0 := time.Now()
	for _, k := range simKinds {
		sp := tr.begin("experiments.RunFig2Point "+k.String(), root)
		var pt simPoint
		if tr == nil {
			start := time.Now()
			p := experiments.RunFig2Point(w.fig2(w.sc.simWarmup, w.sc.simMeasure), k, w.sc.simClients)
			pt = simPoint{throughput: p.Throughput, meanRT: p.MeanRT, errors: p.Errors, host: time.Since(start)}
		} else {
			pt = w.tracedPoint(k)
		}
		sp.end()
		pt.completed = int(pt.throughput*w.sc.simMeasure.Seconds() + 0.5)
		res.ops += pt.completed + pt.errors
		res.failed += pt.errors
		res.pkts += int64(pt.pkts)

		v := virtual{pt.throughput, pt.meanRT, pt.events}
		switch f := w.first[k]; {
		case f == nil:
			w.first[k] = &v
		case f.throughput != v.throughput || f.meanRT != v.meanRT || (f.events != 0 && v.events != 0 && f.events != v.events):
			// The same seed gave a different answer: none of this
			// point's requests can be trusted.
			res.failed += pt.completed
			fmt.Fprintf(os.Stderr, "sim_rubis: %v point is not deterministic: %+v then %+v\n", k, *f, v)
		case f.events == 0:
			f.events = v.events
		}
		if pt.completed > 0 {
			res.lat = append(res.lat, us(pt.host)/float64(pt.completed))
		}
		res.sim = append(res.sim, pt)
	}
	res.wall = time.Since(t0)
	if res.ops == 0 {
		return res, fmt.Errorf("no request completed")
	}
	return res, nil
}

// tracedPoint is experiments.RunFig2Point written out against the same
// public pieces (Deploy, rubis.Mix, simload.ClosedLoop), so that the
// deployment is still in hand when the run ends and its counters can be
// read. round checks that it returns what RunFig2Point returns.
func (w *simWorkload) tracedPoint(k secio.Kind) simPoint {
	cfg := w.fig2(w.sc.simWarmup, w.sc.simMeasure)
	start := time.Now()
	d := experiments.Deploy(experiments.DeployConfig{
		Profile: cfg.Profile, Kind: k, NumWeb: 3, DBCache: false, UseRSA: true, Seed: cfg.Seed, WithLB: true,
	})
	mix := rubis.NewMix(cfg.Seed+int64(w.sc.simClients), d.DB.NumItems(), d.DB.NumUsers())
	addr, port := d.FrontAddr()
	load := &simload.ClosedLoop{
		Transport: d.ClientT, Target: addr, Port: port, Clients: w.sc.simClients,
		Duration: cfg.Duration, Warmup: cfg.Warmup, NextPath: mix.Next, Timeout: 8 * time.Second,
	}
	res := load.Run(d.Sim)
	d.Sim.Run(cfg.Duration + 10*time.Second)
	virt := d.Sim.Now()
	d.Sim.Shutdown()
	pt := simPoint{
		throughput: res.Throughput(), meanRT: res.Latency.Mean(), errors: res.Errors,
		host:   time.Since(start),
		events: d.Sim.EventsFired(),
		served: d.LB.Served, proxyErr: d.LB.Errors, proxyP50: d.LB.Latency.Percentile(50),
	}
	util := func(nodes ...*netsim.Node) float64 {
		var busy time.Duration
		cores := 0
		for _, n := range nodes {
			_, tx, _, txBytes := n.Stats()
			pt.pkts += tx
			pt.bytes += txBytes
			busy += n.CPU().BusyTime()
			cores += n.CPU().Cores()
		}
		return busy.Seconds() / (float64(cores) * virt.Seconds())
	}
	webs := make([]*netsim.Node, len(d.WebVMs))
	for i, vm := range d.WebVMs {
		webs[i] = vm.Node
	}
	pt.util = [3]float64{util(d.LBNode), util(webs...), util(d.DBVM.Node)}
	util(d.ClientT.Stack.Node()) // the clients' packets count too
	for _, f := range d.WebFabs {
		if f != nil {
			pt.retransmits += f.Host().Retransmits
			pt.ctlShed += f.CtlShed()
		}
	}
	return pt
}

func (w *simWorkload) layers(m metrics, seed int64, traced []roundResult, tr *tracer) error {
	// Counts are deterministic, so the first traced round speaks for all;
	// host times are medians over the traced rounds.
	for i, k := range simKinds {
		name := k.String()
		pt := traced[0].sim[i]
		reqs := float64(pt.served) // every request, the warm-up's too, as the packets are
		host := medianOf(traced, func(r roundResult) float64 { return r.sim[i].host.Seconds() })
		m["netsim.events_"+name] = float64(pt.events)
		m["netsim.host_s_"+name] = host
		m["netsim.host_ns_per_event_"+name] = host * 1e9 / float64(pt.events)
		m["netsim.pkts_per_req_"+name] = ratio(float64(pt.pkts), reqs)
		m["netsim.bytes_per_req_"+name] = ratio(float64(pt.bytes), reqs)
		m["rubis.virt_req_s_"+name] = pt.throughput
		for j, tier := range []string{"lb", "web", "db"} {
			m["cloud.virt_cpu_util_"+tier+"_"+name] = pt.util[j]
		}
		if k == secio.HIP {
			m["rubis.virt_rt_ms_hip"] = pt.meanRT.Seconds() * 1e3
			m["hip.retransmits_sim"] = float64(pt.retransmits)
			m["hipsim.ctl_shed"] = float64(pt.ctlShed)
			m["proxy.served"] = float64(pt.served)
			m["proxy.errors"] = float64(pt.proxyErr)
			m["proxy.virt_latency_ms_p50"] = pt.proxyP50.Seconds() * 1e3
		}
	}

	sp := tr.begin("probe netsim", open{})
	m["netsim.dense_event_ns"] = denseEvents(seed, w.sc)
	sp.end()
	sp = tr.begin("probe simtcp+hipsim transfer", open{})
	plain, err := simTransfer(seed, false, w.sc.simBulk)
	if err != nil {
		return err
	}
	secured, err := simTransfer(seed, true, w.sc.simBulk)
	if err != nil {
		return err
	}
	sp.end()
	m["simtcp.plain_transfer_host_ns_per_pkt"] = plain
	m["hipsim.transfer_host_ns_per_pkt"] = secured
	sp = tr.begin("probe rubis+microhttp+tlslite", open{})
	page := rubisProbe(m, seed, w.sc.probe)
	microhttpProbe(m, page, w.sc.probe)
	err = tlsliteProbe(m, seed, w.sc.probe)
	sp.end()
	if err != nil {
		return err
	}
	sp = tr.begin("probe esp suites", open{})
	suiteThroughput(m, w.sc.probe/4)
	sp.end()
	return nil
}

// denseEvents is raw scheduler dispatch: self-rescheduling events on an
// otherwise empty simulator, ns of host time each.
func denseEvents(seed int64, sc scale) float64 {
	n := int(sc.probe / (50 * time.Nanosecond)) // about sc.probe of host time
	s := netsim.New(seed)
	fired := 0
	var fn func()
	fn = func() {
		if fired++; fired < n {
			s.After(time.Microsecond, fn)
		}
	}
	s.After(0, fn)
	start := time.Now()
	s.Run(0)
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// simTransfer moves total bytes between two EC2-profile VMs on one
// netsim, over simtcp on the plain fabric or on the hipsim fabric (LSI
// addressing, as in the paper's runs), and returns host ns per packet
// the two nodes transmitted. The difference between the two is what the
// shim and ESP cost the host inside the simulator.
func simTransfer(seed int64, secured bool, total int) (float64, error) {
	s := netsim.New(seed)
	cl := cloud.New(netsim.NewNetwork(s), cloud.EC2)
	tenant := &cloud.Tenant{Name: "t", VLAN: 1}
	a := cl.Zones[0].Launch("vmA", cloud.EC2.WebType, tenant).Node
	b := cl.Zones[0].Launch("vmB", cloud.EC2.WebType, tenant).Node
	var fa, fb simtcp.Fabric = simtcp.NewPlainFabric(a), simtcp.NewPlainFabric(b)
	kind, target := secio.Basic, b.Addr()
	if secured {
		reg := hipsim.NewRegistry()
		mk := func(n *netsim.Node) *hipsim.Fabric {
			return hipsim.New(n, must(hip.NewHost(hip.Config{
				Identity: identity.MustGenerateDeterministic(identity.AlgRSA, fmt.Sprintf("bench/%d/%s", seed, n.Name())),
				Locator:  n.Addr(),
				Costs:    cloud.HIPCosts(true),
			})), reg)
		}
		ha, hb := mk(a), mk(b)
		fa, fb, kind, target = ha, hb, secio.HIP, reg.LSI(hb.Host().HIT())
	}
	bulk := &simload.Bulk{
		Client: &secio.Transport{Kind: kind, Stack: simtcp.NewStack(a, fa)},
		Server: &secio.Transport{Kind: kind, Stack: simtcp.NewStack(b, fb)},
		Target: target, Port: benchPort, Total: total,
	}
	start := time.Now()
	res := bulk.Run(s)
	s.Run(10 * time.Minute)
	s.Shutdown()
	host := time.Since(start)
	if res.Err != nil || res.Bytes != uint64(total) {
		return 0, fmt.Errorf("in-simulator transfer (secured=%v): %d of %d bytes, %v", secured, res.Bytes, total, res.Err)
	}
	_, txA, _, _ := a.Stats()
	_, txB, _, _ := b.Stats()
	return float64(host.Nanoseconds()) / float64(txA+txB), nil
}

// pathQueries maps a GET path of the RUBiS mix to the database queries
// the web tier issues for it: the path with spaces for slashes, and the
// bid history after an item page.
func pathQueries(path string) []string {
	q := strings.ReplaceAll(strings.TrimPrefix(path, "/"), "/", " ")
	if id, ok := strings.CutPrefix(q, "item "); ok {
		return []string{q, "bids " + id}
	}
	return []string{q}
}

// rubisProbe runs the seed's request mix straight against the in-memory
// database. It returns a page of the mean size for the codec probe.
func rubisProbe(m metrics, seed int64, budget time.Duration) []byte {
	db := rubis.Populate(seed, 400, 2000) // Deploy's default dataset
	mix := rubis.NewMix(seed, db.NumItems(), db.NumUsers())
	var queries, pageBytes int
	var cost time.Duration
	start := time.Now()
	for time.Since(start) < budget {
		for _, q := range pathQueries(mix.Next()) {
			res, c, err := db.Execute(q)
			if err != nil {
				panic(fmt.Sprintf("rubis probe: %q: %v", q, err))
			}
			queries++
			cost += c
			pageBytes += len(res)
		}
	}
	m["rubis.execute_host_ns"] = float64(time.Since(start).Nanoseconds()) / float64(queries)
	m["rubis.virt_cost_us_mean"] = us(cost) / float64(queries)
	m["rubis.page_bytes_mean"] = float64(pageBytes) / float64(queries)
	return bytes.Repeat([]byte{'x'}, pageBytes/queries)
}

// microhttpProbe parses one request and one response of the mean page
// size, over and over, from memory.
func microhttpProbe(m metrics, page []byte, budget time.Duration) {
	var req, resp strings.Builder
	// A strings.Builder never fails a write.
	_ = microhttp.WriteRequest(&req, &microhttp.Request{Method: "GET", Path: "/item/1234", Headers: map[string]string{"Host": "rubis"}})
	_ = microhttp.WriteResponse(&resp, &microhttp.Response{Status: 200, Headers: map[string]string{"Content-Type": "text/html"}, Body: page})
	rd := strings.NewReader("")
	br := bufio.NewReader(rd)
	m["microhttp.read_request_ns"] = timeLoop(budget/2, 1, func() {
		rd.Reset(req.String())
		br.Reset(rd)
		must(microhttp.ReadRequest(br))
	})
	m["microhttp.read_response_ns"] = timeLoop(budget/2, 1, func() {
		rd.Reset(resp.String())
		br.Reset(rd)
		must(microhttp.ReadResponse(br))
	})
}

// memPipe is one direction of an in-memory byte stream: writes never
// block, reads block until there is data.
type memPipe struct {
	mu   sync.Mutex
	cond *sync.Cond
	buf  []byte
}

func newMemPipe() *memPipe {
	p := &memPipe{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// memStream is one end of a pair of memPipes; it is a tlslite.Stream.
type memStream struct{ in, out *memPipe }

func (s memStream) Read(b []byte) (int, error) {
	s.in.mu.Lock()
	defer s.in.mu.Unlock()
	for len(s.in.buf) == 0 {
		s.in.cond.Wait()
	}
	n := copy(b, s.in.buf)
	s.in.buf = s.in.buf[n:]
	return n, nil
}

func (s memStream) Write(b []byte) (int, error) {
	s.out.mu.Lock()
	s.out.buf = append(s.out.buf, b...)
	s.out.mu.Unlock()
	s.out.cond.Broadcast()
	return len(b), nil
}

// tlsliteProbe runs the SSL baseline's full handshake (RSA server
// identity, as in the fig2 deployment) and its record layer between a
// client and a server joined by memory: handshakes until the budget is
// spent, then 1400-byte records written by one side and read by the
// other with nothing in between.
func tlsliteProbe(m metrics, seed int64, budget time.Duration) error {
	id := identity.MustGenerateDeterministic(identity.AlgRSA, fmt.Sprintf("bench/%d/tls", seed))
	rng := rand.New(rand.NewSource(hostSeed(seed, "tls")))
	var cli, srv *tlslite.Conn
	handshake := func() error {
		ab, ba := newMemPipe(), newMemPipe()
		type result struct {
			c   *tlslite.Conn
			err error
		}
		done := make(chan result, 1)
		go func() {
			// The server draws from crypto/rand: rng is not safe to share.
			c, err := tlslite.Server(memStream{in: ab, out: ba}, tlslite.Config{Identity: id})
			done <- result{c, err}
		}()
		c, err := tlslite.Client(memStream{in: ba, out: ab}, tlslite.Config{Rand: rng})
		r := <-done
		if err != nil {
			return fmt.Errorf("tlslite client handshake: %w", err)
		}
		if r.err != nil {
			return fmt.Errorf("tlslite server handshake: %w", r.err)
		}
		cli, srv = c, r.c
		return nil
	}
	n := 0
	start := time.Now()
	for ; time.Since(start) < budget || n == 0; n++ {
		if err := handshake(); err != nil {
			return err
		}
	}
	m["tlslite.handshake_host_ms"] = time.Since(start).Seconds() * 1e3 / float64(n)

	const recLen, recs = 1400, 256
	rec := bytes.Repeat([]byte{0x5A}, recLen)
	got := make([]byte, recLen)
	var writeNs, readNs time.Duration
	total := 0
	for start := time.Now(); time.Since(start) < budget; total += recs {
		t := time.Now()
		for i := 0; i < recs; i++ {
			if _, err := cli.Write(rec); err != nil {
				return fmt.Errorf("tlslite record write: %w", err)
			}
		}
		writeNs += time.Since(t)
		t = time.Now()
		for i := 0; i < recs; i++ {
			if _, err := io.ReadFull(srv, got); err != nil {
				return fmt.Errorf("tlslite record read: %w", err)
			}
		}
		readNs += time.Since(t)
		if !bytes.Equal(got, rec) {
			return fmt.Errorf("tlslite probe: record came back different")
		}
	}
	m["tlslite.record_write_ns_1400"] = float64(writeNs.Nanoseconds()) / float64(total)
	m["tlslite.record_read_ns_1400"] = float64(readNs.Nanoseconds()) / float64(total)
	return nil
}
