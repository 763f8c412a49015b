// Package experiments wires the whole stack into the paper's evaluation:
// each exported Run* function regenerates one figure or table of
// "Secure Networking for Virtual Machines in the Cloud" (CLUSTER 2012)
// and returns both raw numbers and a rendered text table. The
// per-experiment index lives in DESIGN.md; paper-vs-measured results are
// recorded in EXPERIMENTS.md.
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
	"hipcloud/internal/netsim"
	"hipcloud/internal/proxy"
	"hipcloud/internal/rubis"
	"hipcloud/internal/secio"
	"hipcloud/internal/simtcp"
)

// newSim builds every experiment's simulation. It is a seam for tests:
// the determinism referee swaps in a constructor that traces each packet.
var newSim = netsim.New

// Deployment is the paper's Figure 1 testbed: consumers -> load balancer
// (outside the cloud) -> web VMs -> one DB VM, with the inner hops running
// the scenario's transport.
type Deployment struct {
	Sim     *netsim.Sim
	Cloud   *cloud.Cloud
	Kind    secio.Kind
	ClientT *secio.Transport
	LBAddr  netip.Addr
	LBNode  *netsim.Node // nil unless WithLB
	LB      *proxy.Proxy
	Webs    []*rubis.WebServer
	WebAddr []netip.Addr // scenario addresses of the web tier
	// WebFabs holds each web VM's HIP fabric, index-aligned with Webs
	// (nil entries unless Kind == HIP). Fault schedules use them to follow
	// a migration with MoveTo.
	WebFabs []*hipsim.Fabric
	DB      *rubis.Database
	DBVM    *cloud.VM
	WebVMs  []*cloud.VM
	Reg     *hipsim.Registry // nil unless Kind == HIP
}

// DeployConfig parameterizes a deployment.
type DeployConfig struct {
	Profile cloud.Profile
	Kind    secio.Kind
	NumWeb  int
	DBCache bool
	UseRSA  bool // RSA-2048 host identities / certs (the paper's HIPL default)
	Seed    int64
	// WithLB deploys the reverse proxy tier (Figure 2). Without it,
	// clients hit web server 0 directly (the §V-B response-time setup).
	WithLB bool
	// Items/Users size the RUBiS dataset.
	Items, Users int
	// Zones is the number of availability zones (default 1). All VMs still
	// launch in zone 0; extra zones serve as migration / crash-recovery
	// targets for fault schedules.
	Zones int
	// HealthInterval enables the LB's periodic backend health probes.
	HealthInterval time.Duration
	// TLSSuites selects the tlslite record suites for SSL deployments.
	// Nil keeps the legacy AES-CTR channel and byte-identical wire
	// traffic (the committed goldens); tlslite.PreferredSuites runs the
	// same experiments on the modern AEAD record layer.
	TLSSuites []keymat.Suite
}

func (c *DeployConfig) fill() {
	if c.NumWeb <= 0 {
		c.NumWeb = 3
	}
	if c.Items <= 0 {
		c.Items = 2000
	}
	if c.Users <= 0 {
		c.Users = 400
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Profile.Name == "" {
		c.Profile = cloud.EC2
	}
}

// Deploy builds the testbed.
func Deploy(cfg DeployConfig) *Deployment {
	cfg.fill()
	s := newSim(cfg.Seed)
	n := netsim.NewNetwork(s)
	cl := cloud.New(n, cfg.Profile)
	for i := 1; i < cfg.Zones; i++ {
		cl.AddZone(string(rune('a' + i)))
	}
	tenant := &cloud.Tenant{Name: "tenant-a", VLAN: 100}

	d := &Deployment{Sim: s, Cloud: cl, Kind: cfg.Kind}
	d.DBVM = cl.Zones[0].Launch("db1", cfg.Profile.DBType, tenant)
	for i := 0; i < cfg.NumWeb; i++ {
		d.WebVMs = append(d.WebVMs, cl.Zones[0].Launch(fmt.Sprintf("web%d", i+1), cfg.Profile.WebType, tenant))
	}
	lbNode := cl.AttachExternal("haproxy", 8, 4)
	clientNode := cl.AttachExternal("clients", 16, 16)

	d.DB = rubis.Populate(cfg.Seed, cfg.Users, cfg.Items)
	d.DB.CacheEnabled = cfg.DBCache

	if cfg.Kind == secio.HIP {
		d.Reg = hipsim.NewRegistry()
	}
	alg := identity.AlgECDSA
	if cfg.UseRSA {
		alg = identity.AlgRSA
	}
	// mk builds the scenario transport for a node and returns the address
	// peers should dial it at, plus the HIP fabric when one exists.
	mk := func(node *netsim.Node) (*secio.Transport, netip.Addr, *hipsim.Fabric) {
		switch cfg.Kind {
		case secio.HIP:
			id := identity.MustGenerateDeterministic(alg, fmt.Sprintf("deploy/%d/%s", cfg.Seed, node.Name()))
			h, err := hip.NewHost(hip.Config{
				Identity: id, Locator: node.Addr(), Costs: cloud.HIPCosts(cfg.UseRSA),
			})
			if err != nil {
				panic(err)
			}
			f := hipsim.New(node, h, d.Reg)
			// The paper ran the experiments over LSIs ("all the
			// experiments involving HIP were carried out with LSIs").
			return &secio.Transport{Kind: secio.HIP, Stack: simtcp.NewStack(node, f)}, d.Reg.LSI(id.HIT()), f
		case secio.SSL:
			id := identity.MustGenerateDeterministic(alg, fmt.Sprintf("deploy/%d/%s", cfg.Seed, node.Name()))
			return &secio.Transport{
				Kind: secio.SSL, Identity: id, Costs: cloud.TLSCosts(cfg.UseRSA),
				Stack:     simtcp.NewStack(node, simtcp.NewPlainFabric(node)),
				Rand:      s.Rand(),
				TLSSuites: cfg.TLSSuites,
			}, node.Addr(), nil
		default:
			return &secio.Transport{
				Kind: secio.Basic, Stack: simtcp.NewStack(node, plainFabric(node)),
			}, node.Addr(), nil
		}
	}

	dbT, dbAddr, _ := mk(d.DBVM.Node)
	s.Spawn("db1", (&rubis.DBServer{DB: d.DB, Transport: dbT}).Run)

	for _, vm := range d.WebVMs {
		wt, waddr, wf := mk(vm.Node)
		listenT := wt
		if !cfg.WithLB {
			// §V-B setup: httperf hits the web server over plain HTTP;
			// only the web<->DB hop runs the scenario transport.
			switch cfg.Kind {
			case secio.SSL:
				listenT = &secio.Transport{Kind: secio.Basic, Stack: wt.Stack}
			case secio.HIP:
				listenT = &secio.Transport{
					Kind: secio.Basic, Stack: simtcp.NewStack(vm.Node, plainFabric(vm.Node)),
				}
			}
			waddr = vm.Node.Addr()
		}
		ws := &rubis.WebServer{
			Name:      vm.Name,
			Config:    rubis.DefaultWebConfig,
			Transport: listenT,
			DB:        rubis.NewDBClient(wt, dbAddr, rubis.DefaultWebConfig.DBPool),
		}
		d.Webs = append(d.Webs, ws)
		d.WebAddr = append(d.WebAddr, waddr)
		d.WebFabs = append(d.WebFabs, wf)
		s.Spawn(vm.Name, ws.Run)
	}

	// Consumers always speak plain HTTP (the proxy terminates security).
	d.ClientT = &secio.Transport{
		Kind: secio.Basic, Stack: simtcp.NewStack(clientNode, plainFabric(clientNode)),
	}

	if cfg.WithLB {
		front := &secio.Transport{
			Kind: secio.Basic, Stack: simtcp.NewStack(lbNode, plainFabric(lbNode)),
		}
		var back *secio.Transport
		switch cfg.Kind {
		case secio.Basic:
			back = front
		case secio.SSL:
			back = &secio.Transport{
				Kind: secio.SSL, Stack: front.Stack, Costs: cloud.TLSCosts(cfg.UseRSA),
				Rand:      s.Rand(),
				TLSSuites: cfg.TLSSuites,
			}
		case secio.HIP:
			back, _, _ = mk(lbNode)
		}
		d.LB = &proxy.Proxy{
			Name:           "haproxy",
			Front:          front,
			Back:           back,
			Policy:         proxy.RoundRobin,
			PerRequestCPU:  60 * time.Microsecond,
			HealthInterval: cfg.HealthInterval,
		}
		for i, a := range d.WebAddr {
			d.LB.AddBackend(d.Webs[i].Name, a, rubis.WebPort)
		}
		s.Spawn("haproxy", d.LB.Run)
		d.LBAddr = lbNode.Addr()
		d.LBNode = lbNode
	}
	return d
}

// plainFabric builds the unprotected fabric with the baseline per-packet
// kernel cost, so "basic" is cheap but not free.
func plainFabric(node *netsim.Node) *simtcp.PlainFabric {
	f := simtcp.NewPlainFabric(node)
	f.PerPacketCost = cloud.PlainPerPacket
	return f
}

// FrontAddr returns the address consumers should dial: the LB when
// deployed, otherwise the first web server (which consumers reach over
// plain HTTP only when the scenario is Basic — the §V-B setup keeps the
// client leg plain regardless, so direct deployments expose web0 through
// a tiny plain front in front of it).
func (d *Deployment) FrontAddr() (netip.Addr, uint16) {
	if d.LB != nil {
		return d.LBAddr, proxy.FrontPort
	}
	return d.WebAddr[0], rubis.WebPort
}
