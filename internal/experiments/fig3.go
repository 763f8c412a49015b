package experiments

import (
	"fmt"
	"net/netip"
	"time"

	"hipcloud/internal/cloud"
	"hipcloud/internal/hip"
	"hipcloud/internal/hipsim"
	"hipcloud/internal/identity"
	"hipcloud/internal/keymat"
	"hipcloud/internal/metrics"
	"hipcloud/internal/netsim"
	"hipcloud/internal/secio"
	"hipcloud/internal/simtcp"
	"hipcloud/internal/teredo"
	"hipcloud/internal/workload"
)

// ConnMode is one connectivity configuration on Figure 3's x-axis.
type ConnMode int

// The six modes of Figure 3.
const (
	ModeIPv4 ConnMode = iota
	ModeHITIPv4
	ModeLSIIPv4
	ModeTeredo
	ModeHITTeredo
	ModeLSITeredo
)

func (m ConnMode) String() string {
	switch m {
	case ModeIPv4:
		return "IPv4"
	case ModeHITIPv4:
		return "HIT(IPv4)"
	case ModeLSIIPv4:
		return "LSI(IPv4)"
	case ModeTeredo:
		return "Teredo"
	case ModeHITTeredo:
		return "HIT(Teredo)"
	case ModeLSITeredo:
		return "LSI(Teredo)"
	}
	return "mode(?)"
}

// Fig3Modes lists the modes in the paper's bar order.
var Fig3Modes = []ConnMode{ModeLSIIPv4, ModeTeredo, ModeIPv4, ModeHITIPv4, ModeHITTeredo, ModeLSITeredo}

// Fig3Point is one mode's iperf + RTT measurement.
type Fig3Point struct {
	Mode    ConnMode
	Mbps    float64
	MeanRTT time.Duration
	Pings   int
}

// Fig3Config parameterizes the reproduction.
type Fig3Config struct {
	Profile cloud.Profile
	// Bytes per iperf transfer (default 6 MiB).
	Bytes int
	// Pings per RTT series (paper: 20).
	Pings int
	Seed  int64
	// Suites overrides the HIP_CIPHER proposal list for the secured
	// modes. Nil keeps the 2012 transform set (the committed numbers);
	// keymat.PreferredAEAD re-measures the same figure on the modern
	// single-pass AEAD data plane (the EXPERIMENTS.md
	// "fig3 on modern primitives" table).
	Suites []keymat.Suite
}

func (c *Fig3Config) fill() {
	if c.Bytes <= 0 {
		c.Bytes = 6 << 20
	}
	if c.Pings <= 0 {
		c.Pings = 20
	}
	if c.Profile.Name == "" {
		c.Profile = cloud.EC2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// fig3World is two VMs in one zone plus an external Teredo server.
type fig3World struct {
	sim       *netsim.Sim
	vmA, vmB  *cloud.VM
	teredoSrv *teredo.Server
	caT, cbT  *teredo.Client
}

func buildFig3World(cfg Fig3Config, needTeredo bool) *fig3World {
	s := newSim(cfg.Seed)
	n := netsim.NewNetwork(s)
	cl := cloud.New(n, cfg.Profile)
	tenant := &cloud.Tenant{Name: "t", VLAN: 1}
	w := &fig3World{
		sim: s,
		vmA: cl.Zones[0].Launch("vmA", cfg.Profile.WebType, tenant),
		vmB: cl.Zones[0].Launch("vmB", cfg.Profile.WebType, tenant),
	}
	if needTeredo {
		// A nearby public Teredo server/relay: moderate extra latency and
		// a relay pipe no wider than a VM's, so triangular routing costs
		// both latency and throughput — the paper's worst-case bar.
		// Public Teredo relays were shared, slow infrastructure in 2012;
		// a sixth of the datacenter pipe reproduces the observed drop.
		srvNode := cl.AttachExternalLink("teredo-srv", 4, 4, 400*time.Microsecond, cfg.Profile.LinkBandwidth/6)
		w.teredoSrv = teredo.NewServer(srvNode)
		w.caT = teredo.NewClient(w.vmA.Node, w.teredoSrv.Addr())
		w.cbT = teredo.NewClient(w.vmB.Node, w.teredoSrv.Addr())
	}
	return w
}

// RunFig3Mode measures one connectivity mode.
func RunFig3Mode(cfg Fig3Config, mode ConnMode) (Fig3Point, error) {
	cfg.fill()
	pt := Fig3Point{Mode: mode}
	needTeredo := mode == ModeTeredo || mode == ModeHITTeredo || mode == ModeLSITeredo
	w := buildFig3World(cfg, needTeredo)
	s := w.sim

	// Qualification runs first for Teredo modes.
	qualify := func(p *netsim.Proc) error {
		if !needTeredo {
			return nil
		}
		if err := w.caT.Qualify(p, 10*time.Second); err != nil {
			return err
		}
		return w.cbT.Qualify(p, 10*time.Second)
	}

	var setupErr error
	var bulk *workload.BulkResult
	rtts := &metrics.Histogram{}

	s.Spawn("fig3", func(p *netsim.Proc) {
		if err := qualify(p); err != nil {
			setupErr = err
			return
		}
		var cliT, srvT *secio.Transport
		var target netip.Addr
		var ping func(p *netsim.Proc) (time.Duration, error)

		switch mode {
		case ModeIPv4:
			cliT = &secio.Transport{Kind: secio.Basic, Stack: simtcp.NewStack(w.vmA.Node, simtcp.NewPlainFabric(w.vmA.Node))}
			srvT = &secio.Transport{Kind: secio.Basic, Stack: simtcp.NewStack(w.vmB.Node, simtcp.NewPlainFabric(w.vmB.Node))}
			target = w.vmB.Addr()
			ping = func(p *netsim.Proc) (time.Duration, error) {
				return w.vmA.Node.Ping(p, w.vmB.Addr(), 64, 5*time.Second)
			}
		case ModeHITIPv4, ModeLSIIPv4:
			reg := hipsim.NewRegistry()
			fa := newHIPFabric(w.vmA.Node, reg, nil, cfg.Suites)
			fb := newHIPFabric(w.vmB.Node, reg, nil, cfg.Suites)
			cliT = &secio.Transport{Kind: secio.HIP, Stack: simtcp.NewStack(w.vmA.Node, fa)}
			srvT = &secio.Transport{Kind: secio.HIP, Stack: simtcp.NewStack(w.vmB.Node, fb)}
			target = fb.Host().HIT()
			if mode == ModeLSIIPv4 {
				target = reg.LSI(fb.Host().HIT())
			}
			tgt := target
			ping = func(p *netsim.Proc) (time.Duration, error) {
				return fa.Ping(p, tgt, 64, 5*time.Second)
			}
		case ModeTeredo:
			w.cbT.EchoService()
			cliT = &secio.Transport{Kind: secio.Basic, Stack: simtcp.NewStack(w.vmA.Node, teredo.NewFabric(w.caT))}
			srvT = &secio.Transport{Kind: secio.Basic, Stack: simtcp.NewStack(w.vmB.Node, teredo.NewFabric(w.cbT))}
			target = w.cbT.Addr()
			ping = func(p *netsim.Proc) (time.Duration, error) {
				return w.caT.Ping(p, w.cbT.Addr(), 64, 5*time.Second)
			}
		case ModeHITTeredo, ModeLSITeredo:
			reg := hipsim.NewRegistry()
			fa := newHIPFabric(w.vmA.Node, reg, w.caT, cfg.Suites)
			fb := newHIPFabric(w.vmB.Node, reg, w.cbT, cfg.Suites)
			cliT = &secio.Transport{Kind: secio.HIP, Stack: simtcp.NewStack(w.vmA.Node, fa)}
			srvT = &secio.Transport{Kind: secio.HIP, Stack: simtcp.NewStack(w.vmB.Node, fb)}
			target = fb.Host().HIT()
			if mode == ModeLSITeredo {
				target = reg.LSI(fb.Host().HIT())
			}
			tgt := target
			ping = func(p *netsim.Proc) (time.Duration, error) {
				return fa.Ping(p, tgt, 64, 5*time.Second)
			}
		}

		// RTT series first (quiet network), then the bulk transfer.
		for i := 0; i < cfg.Pings; i++ {
			if rtt, err := ping(p); err == nil {
				rtts.Add(rtt)
			}
			p.Sleep(50 * time.Millisecond)
		}
		b := &workload.Bulk{
			Client: cliT, Server: srvT,
			Target: target, Port: 5001, Total: cfg.Bytes,
		}
		bulk = b.Run(s)
	})

	s.Run(10 * time.Minute)
	s.Shutdown()
	if setupErr != nil {
		return pt, setupErr
	}
	if bulk == nil || bulk.Err != nil {
		err := fmt.Errorf("fig3 %v: bulk transfer failed", mode)
		if bulk != nil && bulk.Err != nil {
			err = fmt.Errorf("fig3 %v: %w", mode, bulk.Err)
		}
		return pt, err
	}
	pt.Mbps = bulk.Mbps()
	pt.MeanRTT = rtts.Mean()
	pt.Pings = rtts.Count()
	return pt, nil
}

// newHIPFabric builds a HIP host+fabric on node; ul selects the underlay
// (nil = direct IPv4).
func newHIPFabric(node *netsim.Node, reg *hipsim.Registry, ul hipsim.Underlay, suites []keymat.Suite) *hipsim.Fabric {
	id := identity.MustGenerateDeterministic(identity.AlgRSA, "fig3/"+node.Name())
	loc := node.Addr()
	if ul != nil {
		loc = ul.LocalAddr()
	}
	h, err := hip.NewHost(hip.Config{
		Identity: id, Locator: loc, Costs: cloud.HIPCosts(true), Suites: suites,
	})
	if err != nil {
		panic(err)
	}
	if ul == nil {
		return hipsim.New(node, h, reg)
	}
	return hipsim.NewWithUnderlay(node, h, reg, ul)
}

// RunFig3 regenerates Figure 3: iperf bandwidth and mean ICMP RTT for all
// six connectivity modes between two EC2 VMs.
func RunFig3(cfg Fig3Config) ([]Fig3Point, *metrics.Table, error) {
	cfg.fill()
	tbl := metrics.NewTable(
		"Figure 3 — iperf bandwidth and RTT between two VMs ("+cfg.Profile.Name+")",
		"mode", "iperf (Mbit/s)", "mean RTT", "pings")
	var out []Fig3Point
	for _, mode := range Fig3Modes {
		pt, err := RunFig3Mode(cfg, mode)
		if err != nil {
			return out, tbl, err
		}
		out = append(out, pt)
		tbl.Row(pt.Mode.String(), pt.Mbps, pt.MeanRTT, pt.Pings)
	}
	tbl.Caption = "paper: IPv4 fastest; HIT below it; LSI slower than HIT (translation); Teredo worst latency (relay)"
	return out, tbl, nil
}
