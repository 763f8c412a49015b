package experiments

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"hipcloud/internal/cloud"
	"hipcloud/internal/faults"
	"hipcloud/internal/hip"
	"hipcloud/internal/hipdns"
	"hipcloud/internal/hipsim"
	"hipcloud/internal/identity"
	"hipcloud/internal/metrics"
	"hipcloud/internal/netsim"
	"hipcloud/internal/puzzle"
	"hipcloud/internal/rvs"
	"hipcloud/internal/secio"
	"hipcloud/internal/simtcp"
)

// stormEchoPort is where basic/SSL echo servers listen (HIP clients probe
// in-tunnel via the fabric's native echo instead).
const stormEchoPort uint16 = 7

// StormConfig parameterizes the control-plane overload experiment.
type StormConfig struct {
	Profile cloud.Profile
	// Duration is the virtual length of each scenario run; the fault and
	// evacuation schedule scales with it. Default 60s.
	Duration time.Duration
	// Servers is the number of echo-service VMs, all packed onto ONE
	// physical host in zone a so a single host failure evacuates every one
	// of them at once. Default 8.
	Servers int
	// Clients is the herd size: each client holds one association (HIP) or
	// connection (basic/SSL) and re-contacts after the evacuation. Default
	// 500, the scale the admission/backoff machinery must survive.
	Clients int
	Seed    int64
}

func (c *StormConfig) fill() {
	if c.Duration <= 0 {
		c.Duration = 60 * time.Second
	}
	if c.Servers <= 0 {
		c.Servers = 8
	}
	if c.Clients <= 0 {
		c.Clients = 500
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Profile.Name == "" {
		c.Profile = cloud.EC2
	}
}

// StormResult is one scenario's measurements.
type StormResult struct {
	Kind    secio.Kind
	Clients int
	// ContactsOK counts successful establishments (initial + re-contact);
	// Redials counts failed resolve/establish attempts.
	ContactsOK, Redials int
	// EchoOK/EchoFail count the per-client liveness probes.
	EchoOK, EchoFail int
	// Recontacts is how many outage->reconnect cycles completed;
	// RecontactP50/P99 summarize time from detecting the dead peer to
	// restored service.
	Recontacts                 int
	RecontactP50, RecontactP99 time.Duration
	// Dipped reports whether connectivity fell below the recovery
	// threshold after the evacuation; Recovery is the time from the
	// evacuation until >=95% of clients were connected again (0 with
	// Dipped=true means the herd never recovered inside the run).
	Dipped   bool
	Recovery time.Duration
	// Shed counters: HIP responder admission queues, rendezvous relay
	// rate limiter, DNS server pending-queue backpressure.
	CtlShed, RVSShed, DNSShed uint64
	// Retransmits sums HIP control-plane retransmissions across all hosts
	// (the amplification the jittered capped backoff must bound).
	Retransmits uint64
	FaultLog    []faults.Record
}

// stormServer is one evacuated service VM and its per-kind plumbing.
type stormServer struct {
	vm    *cloud.VM
	name  string
	id    *identity.HostIdentity
	fab   *hipsim.Fabric      // HIP only
	plain *simtcp.PlainFabric // basic/SSL only
}

// runStormScenario drives one transport kind through the storm schedule
// (offsets are fractions of cfg.Duration, written D):
//
//	0.30D  both inter-zone links impaired (8% loss) for 0.25D — the
//	       re-contact herd crosses a lossy path, so retransmit backoff
//	       and jitter actually matter.
//	0.35D  physical host 0 of zone a fails: every service VM evacuates
//	       at once (cloud.Evacuate) into zones b/c. HIP servers announce
//	       the new locator (UPDATE storm) and re-register with the
//	       rendezvous server; basic/SSL rely on the short-TTL DNS A
//	       record the controller rewrites.
//	0.36D  the DNS server's CPU stalls for 0.06D, right as the herd
//	       re-resolves: its bounded pending queue sheds with retry-after
//	       and resolvers fall back to (now stale) cached answers.
func runStormScenario(cfg StormConfig, kind secio.Kind) StormResult {
	D := cfg.Duration
	res := StormResult{Kind: kind, Clients: cfg.Clients}

	s := newSim(cfg.Seed)
	n := netsim.NewNetwork(s)
	cl := cloud.New(n, cfg.Profile)
	cl.AddZone("b")
	cl.AddZone("c")
	// Pack every service VM onto physical host 0 so one host failure is a
	// full-fleet evacuation.
	cl.Zones[0].HostCapacity = cfg.Servers
	tenant := &cloud.Tenant{Name: "svc", VLAN: 1}
	costs := cloud.HIPCosts(false) // ECDSA identities keep setup fast

	dnsNode := cl.AttachExternal("dns", 2, 4)
	dnsSrv := hipdns.NewServer(dnsNode)
	dnsSrv.PerQueryCost = 200 * time.Microsecond
	rvNode := cl.AttachExternal("rvs", 4, 4)
	rvsSrv := rvs.New(rvNode)
	rvsSrv.TTL = 10 * time.Second
	// Modestly provisioned relay: the loss-window churn plus the
	// evacuation herd exceed this, so the rate limiter sheds and the
	// initiators' jittered backoff paces the retries — degrade, don't
	// collapse.
	rvsSrv.MaxRelayRate = 128

	// Service tier: adaptive puzzles so the responders harden as their
	// admission queues deepen (hipsim feeds queue depth to the host).
	diff := puzzle.Difficulty{BaseK: 1, MaxK: 10, LowWater: 8, HighWater: 64}
	serverReg := hipsim.NewRegistry()
	servers := make([]*stormServer, cfg.Servers)
	byVM := make(map[*cloud.VM]*stormServer)
	for i := range servers {
		vm := cl.Zones[0].Launch("svc"+itoa(i), cfg.Profile.WebType, tenant)
		sv := &stormServer{vm: vm, name: fmt.Sprintf("svc%d.cloud", i)}
		servers[i] = sv
		byVM[vm] = sv
		switch kind {
		case secio.HIP:
			sv.id = identity.MustGenerateDeterministic(identity.AlgECDSA,
				fmt.Sprintf("storm/%d/svc%d", cfg.Seed, i))
			host, err := hip.NewHost(hip.Config{
				Identity: sv.id, Locator: vm.Addr(), Costs: costs, Puzzle: diff,
			})
			if err != nil {
				panic(err)
			}
			sv.fab = hipsim.New(vm.Node, host, serverReg)
			rvsSrv.Register(sv.id.HIT(), vm.Addr())
			// The HIP RR is stable across migrations: clients learn the HIT
			// and the rendezvous address, never a locator that can go stale.
			dnsSrv.Set(sv.name, hipdns.Record{
				Type: hipdns.TypeHIP, TTL: 30 * time.Second,
				HIP: &hipdns.HIPRecord{
					HIT: sv.id.HIT(), Algorithm: 7,
					RendezvousServers: []netip.Addr{rvsSrv.Addr()},
				},
			})
			// Registration refresh: re-register every TTL/2 with the
			// current locator, so a binding only goes stale if the host
			// actually stops (rvs satellite: TTL + refresh).
			fab := sv.fab
			hit := sv.id.HIT()
			s.Spawn(sv.name+"/rvs-refresh", func(p *netsim.Proc) {
				for p.Now() < D {
					p.Sleep(rvsSrv.TTL / 2)
					rvsSrv.Register(hit, fab.Host().Locator())
				}
			})
		case secio.SSL:
			sv.id = identity.MustGenerateDeterministic(identity.AlgECDSA,
				fmt.Sprintf("storm/%d/svc%d", cfg.Seed, i))
			sv.plain = plainFabric(vm.Node)
			tr := &secio.Transport{
				Kind: secio.SSL, Identity: sv.id, Costs: cloud.TLSCosts(false),
				Stack: simtcp.NewStack(vm.Node, sv.plain),
				Rand:  s.Rand(),
			}
			stormEchoServer(s, sv.name, tr)
			dnsSrv.Set(sv.name, hipdns.Record{Type: hipdns.TypeA, TTL: 2 * time.Second, Addr: vm.Addr()})
		default:
			sv.plain = plainFabric(vm.Node)
			tr := &secio.Transport{
				Kind: secio.Basic, Stack: simtcp.NewStack(vm.Node, sv.plain),
			}
			stormEchoServer(s, sv.name, tr)
			dnsSrv.Set(sv.name, hipdns.Record{Type: hipdns.TypeA, TTL: 2 * time.Second, Addr: vm.Addr()})
		}
	}

	// Fault schedule.
	inj := faults.New(s)
	imp := faults.Impairment{DropProb: 0.08}
	inj.ImpairLink(cl.InterZoneLink(cl.Zones[0], cl.Zones[1]), "a-b", D*30/100, D*25/100, imp)
	inj.ImpairLink(cl.InterZoneLink(cl.Zones[0], cl.Zones[2]), "a-c", D*30/100, D*25/100, imp)
	evacAt := D * 35 / 100
	inj.At(evacAt, "evacuate zone-a host 0", func() {
		for _, vm := range cl.Evacuate(cl.Zones[0], 0) {
			sv := byVM[vm]
			if sv.fab != nil {
				// The HIP host knows its locator changed: UPDATE storm to
				// every peer, immediate rendezvous re-registration.
				sv.fab.MoveTo(vm.Addr())
				rvsSrv.Register(sv.id.HIT(), vm.Addr())
			} else {
				// IP-bound tiers depend on the controller rewriting the
				// short-TTL A record; clients converge as caches lapse. The
				// fabric rehomes so fresh connections source from the live
				// locator.
				sv.plain.Rehome()
				dnsSrv.Set(sv.name, hipdns.Record{Type: hipdns.TypeA, TTL: 2 * time.Second, Addr: vm.Addr()})
			}
		}
	})
	inj.StallCPU(dnsNode, D*36/100, D*6/100)

	// Client herd.
	rng := s.Rand()
	connected := 0
	var recon metrics.Histogram
	var clientFabs []*hipsim.Fabric
	for i := 0; i < cfg.Clients; i++ {
		target := servers[i%cfg.Servers]
		node := cl.AttachExternal("cli"+itoa(i), 1, 1)
		resv := hipdns.NewResolver(node, dnsSrv.Addr())
		resv.RetryBudget = 4
		resv.RetryPerSec = 1
		startAt := time.Duration(i) * (D / 10) / time.Duration(cfg.Clients)
		if kind == secio.HIP {
			id := identity.MustGenerateDeterministic(identity.AlgECDSA,
				fmt.Sprintf("storm/%d/cli%d", cfg.Seed, i))
			host, err := hip.NewHost(hip.Config{Identity: id, Locator: node.Addr(), Costs: costs})
			if err != nil {
				panic(err)
			}
			reg := hipsim.NewRegistry()
			fab := hipsim.New(node, host, reg)
			clientFabs = append(clientFabs, fab)
			s.Spawn("cli", func(p *netsim.Proc) {
				p.Sleep(startAt)
				stormHIPClient(p, &res, rng, fab, reg, resv, target.name, D, &connected, &recon)
			})
		} else {
			tr := &secio.Transport{
				Kind: kind, Stack: simtcp.NewStack(node, plainFabric(node)),
				DialTimeout: time.Second,
			}
			if kind == secio.SSL {
				tr.Costs = cloud.TLSCosts(false)
				tr.Rand = s.Rand()
			}
			s.Spawn("cli", func(p *netsim.Proc) {
				p.Sleep(startAt)
				stormTCPClient(p, &res, rng, tr, resv, target.name, D, &connected, &recon)
			})
		}
	}

	// Recovery monitor: after the evacuation, wait for connectivity to dip
	// below the threshold and record when it climbs back over it.
	need := cfg.Clients * 95 / 100
	s.Spawn("storm-monitor", func(p *netsim.Proc) {
		p.Sleep(evacAt)
		for p.Now() < D {
			if connected < need {
				res.Dipped = true
			} else if res.Dipped {
				res.Recovery = p.Now() - evacAt
				return
			}
			p.Sleep(D / 500)
		}
	})

	s.Run(D + D/4)
	s.Shutdown()

	if recon.Count() > 0 {
		res.RecontactP50 = recon.Percentile(50)
		res.RecontactP99 = recon.Percentile(99)
	}
	for _, sv := range servers {
		if sv.fab != nil {
			res.CtlShed += sv.fab.CtlShed()
			res.Retransmits += sv.fab.Host().Retransmits
		}
	}
	for _, f := range clientFabs {
		res.CtlShed += f.CtlShed()
		res.Retransmits += f.Host().Retransmits
	}
	res.RVSShed = rvsSrv.Shed
	res.DNSShed = dnsSrv.Shed
	res.FaultLog = inj.Log()
	return res
}

// stormEchoServer serves fixed-size echoes over the transport: accept
// loop plus one handler process per connection (handshakes off the loop).
func stormEchoServer(s *netsim.Sim, label string, tr *secio.Transport) {
	s.Spawn(label, func(p *netsim.Proc) {
		l := tr.MustListen(stormEchoPort)
		for {
			raw, err := l.AcceptRaw(p, 0)
			if err != nil {
				return
			}
			conn := raw
			p.Spawn(label+"/c", func(hp *netsim.Proc) {
				c, err := tr.ServerConn(hp, conn)
				if err != nil {
					return
				}
				defer c.Close()
				buf := make([]byte, 128)
				for {
					n, err := c.Read(buf)
					if err != nil {
						return
					}
					if _, err := c.Write(buf[:n]); err != nil {
						return
					}
				}
			})
		}
	})
}

// stormBackoff sleeps a capped exponential backoff with +-50% jitter from
// the shared simulation RNG — the initiator-side pacing that keeps a
// synchronized herd from re-contacting in lockstep.
func stormBackoff(p *netsim.Proc, rng *rand.Rand, attempt int) {
	shift := attempt
	if shift > 4 {
		shift = 4
	}
	base := 200 * time.Millisecond << uint(shift)
	p.Sleep(base/2 + time.Duration(float64(base)*rng.Float64()))
}

// stormHIPClient keeps one HIP association alive: resolve the HIP RR,
// establish via the rendezvous server, probe in-tunnel; on a dead peer,
// tear down and re-contact through the same DNS->RVS path.
func stormHIPClient(p *netsim.Proc, res *StormResult, rng *rand.Rand,
	fab *hipsim.Fabric, reg *hipsim.Registry, resv *hipdns.Resolver,
	name string, D time.Duration, connected *int, recon *metrics.Histogram) {
	var peerHIT netip.Addr
	var downAt time.Duration
	attempt, isConn := 0, false
	for p.Now() < D {
		if !isConn {
			hr, err := resv.LookupHIP(p, name)
			if err != nil || len(hr.RendezvousServers) == 0 {
				res.Redials++
				stormBackoff(p, rng, attempt)
				attempt++
				continue
			}
			if err := fab.EstablishAt(p, hr.HIT, hr.RendezvousServers[0]); err != nil {
				res.Redials++
				stormBackoff(p, rng, attempt)
				attempt++
				continue
			}
			peerHIT = hr.HIT
			// The BEX learned the peer's true locator; mirror it into the
			// client's local registry so data-plane sends resolve.
			if a, ok := fab.Host().Association(peerHIT); ok {
				reg.Update(peerHIT, a.PeerLocator)
			}
			attempt = 0
			isConn = true
			*connected++
			res.ContactsOK++
			if downAt > 0 {
				res.Recontacts++
				recon.Add(p.Now() - downAt)
				downAt = 0
			}
		}
		if _, err := fab.Ping(p, peerHIT, 64, time.Second); err != nil {
			res.EchoFail++
			fab.Host().Close(peerHIT, p.Now())
			isConn = false
			*connected--
			if downAt == 0 {
				downAt = p.Now()
			}
			continue
		}
		res.EchoOK++
		p.Sleep(500 * time.Millisecond)
	}
}

// stormTCPClient keeps one basic/SSL echo connection alive, re-resolving
// the short-TTL A record and redialing whenever the peer goes dark.
func stormTCPClient(p *netsim.Proc, res *StormResult, rng *rand.Rand,
	tr *secio.Transport, resv *hipdns.Resolver,
	name string, D time.Duration, connected *int, recon *metrics.Histogram) {
	var conn secio.Conn
	var downAt time.Duration
	attempt := 0
	buf := make([]byte, 64)
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	for p.Now() < D {
		if conn == nil {
			addr, err := resv.LookupAddr(p, name)
			if err != nil {
				res.Redials++
				stormBackoff(p, rng, attempt)
				attempt++
				continue
			}
			c, err := tr.Dial(p, addr, stormEchoPort)
			if err != nil {
				res.Redials++
				stormBackoff(p, rng, attempt)
				attempt++
				continue
			}
			conn = c
			attempt = 0
			*connected++
			res.ContactsOK++
			if downAt > 0 {
				res.Recontacts++
				recon.Add(p.Now() - downAt)
				downAt = 0
			}
		}
		if err := stormEcho(p, conn, buf, time.Second); err != nil {
			res.EchoFail++
			conn.Close()
			conn = nil
			*connected--
			if downAt == 0 {
				downAt = p.Now()
			}
			continue
		}
		res.EchoOK++
		p.Sleep(500 * time.Millisecond)
	}
}

// stormEcho writes a 32-byte probe and reads it back, aborting the
// connection after timeout (streams have no read deadlines; Abort is what
// unblocks a reader stalled on a dead peer).
func stormEcho(p *netsim.Proc, conn secio.Conn, buf []byte, timeout time.Duration) error {
	done, fired := false, false
	p.Sim().After(timeout, func() {
		if !done {
			fired = true
			conn.Abort()
		}
	})
	err := func() error {
		if _, err := conn.Write(buf[:32]); err != nil {
			return err
		}
		for got := 0; got < 32; {
			n, err := conn.Read(buf[32:])
			if err != nil {
				return err
			}
			got += n
		}
		return nil
	}()
	done = true
	if fired && err == nil {
		return netsim.ErrTimeout
	}
	return err
}

// RunStorm runs the evacuation storm for the basic, HIP and SSL scenarios
// and tabulates re-contact latency, recovery time and where load was shed
// — the control-plane overload companion to the chaos experiment: not
// "does one VM recover" but "does the herd's re-contact stampede stay
// bounded".
func RunStorm(cfg StormConfig) ([]StormResult, *metrics.Table) {
	cfg.fill()
	var out []StormResult
	tbl := metrics.NewTable(
		fmt.Sprintf("Storm — host evacuation re-contact herd (%s, %v, %d clients / %d servers)",
			cfg.Profile.Name, cfg.Duration, cfg.Clients, cfg.Servers),
		"scenario", "contacts", "redials", "recontacts", "p50", "p99", "recovery", "shed ctl/rvs/dns", "retrans")
	for _, kind := range []secio.Kind{secio.Basic, secio.HIP, secio.SSL} {
		r := runStormScenario(cfg, kind)
		out = append(out, r)
		rec := "no-dip"
		if r.Dipped {
			rec = "never"
			if r.Recovery > 0 {
				rec = fmt.Sprintf("%.1fms", float64(r.Recovery)/1e6)
			}
		}
		tbl.Row(kind.String(), r.ContactsOK, r.Redials, r.Recontacts,
			r.RecontactP50, r.RecontactP99, rec,
			fmt.Sprintf("%d/%d/%d", r.CtlShed, r.RVSShed, r.DNSShed), int(r.Retransmits))
	}
	tbl.Caption = "schedule: inter-zone loss window, full-host evacuation (synchronized locator change), DNS CPU stall;\n" +
		"HIP re-contacts via rendezvous + UPDATE while basic/SSL wait out DNS TTLs; shed = admission/relay/DNS backpressure"
	return out, tbl
}
