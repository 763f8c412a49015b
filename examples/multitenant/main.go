// Multitenant: the paper's core scenario in the simulated EC2 cloud. Two
// competing tenants land on the same physical hosts; tenant A protects
// its three-tier RUBiS service with HIP, a HIT-based firewall enforces
// tenant isolation at the hypervisor, and the reverse proxy terminates
// HIP toward consumers. Tenant B's co-resident VM can neither join the
// association (ACL) nor read the traffic (ESP).
package main

import (
	"fmt"
	"log"
	"time"

	"hipcloud/internal/cloud"
	"hipcloud/internal/hip"
	"hipcloud/internal/hipfw"
	"hipcloud/internal/hipsim"
	"hipcloud/internal/identity"
	"hipcloud/internal/netsim"
	"hipcloud/internal/proxy"
	"hipcloud/internal/rubis"
	"hipcloud/internal/secio"
	"hipcloud/internal/simtcp"
	"hipcloud/internal/workload"
)

func main() {
	sim := netsim.New(42)
	net_ := netsim.NewNetwork(sim)
	cl := cloud.New(net_, cloud.EC2)
	tenantA := &cloud.Tenant{Name: "acme", VLAN: 10}
	tenantB := &cloud.Tenant{Name: "rival", VLAN: 20}

	// Interleaved launches: rival VMs co-reside with acme's.
	web1 := cl.Zones[0].Launch("acme-web1", cloud.Micro, tenantA)
	spy := cl.Zones[0].Launch("rival-spy", cloud.Micro, tenantB)
	web2 := cl.Zones[0].Launch("acme-web2", cloud.Micro, tenantA)
	db := cl.Zones[0].Launch("acme-db", cloud.Large, tenantA)
	fmt.Printf("co-residency: acme-web1 and rival-spy share a host: %v\n", cloud.CoResident(web1, spy))

	// HIP identities for tenant A's VMs; ACL admits only those HITs.
	reg := hipsim.NewRegistry()
	acl := &hipfw.ACL{}
	costs := cloud.HIPCosts(true)
	mkHIP := func(node *netsim.Node) (*secio.Transport, *identity.HostIdentity) {
		id := identity.MustGenerate(identity.AlgECDSA)
		h, err := hip.NewHost(hip.Config{
			Identity: id, Locator: node.Addr(), Costs: costs,
			Policy: acl.PolicyFunc(), // hosts.allow semantics at the end host
		})
		if err != nil {
			log.Fatal(err)
		}
		f := hipsim.New(node, h, reg)
		acl.AllowHIT(id.HIT())
		return &secio.Transport{Kind: secio.HIP, Stack: simtcp.NewStack(node, f)}, id
	}
	web1T, web1ID := mkHIP(web1.Node)
	web2T, web2ID := mkHIP(web2.Node)
	dbT, dbID := mkHIP(db.Node)
	lbNode := cl.AttachExternal("haproxy", 8, 4)
	lbBackT, _ := mkHIP(lbNode)

	// HIP-aware midbox firewall on the zone switch: only ACL'd HITs and
	// their negotiated SPIs pass between VMs.
	mb := hipfw.NewMidbox(cl.Zones[0].Router, acl)
	mb.AllowNonHIP = true // consumers' plain HTTP to the proxy still flows

	// Tenant A's RUBiS service, web tier over HIP to the DB (by LSI, as
	// in the paper's runs).
	dataset := rubis.Populate(42, 200, 1000)
	dbLSI := reg.LSI(dbID.HIT())
	sim.Spawn("db", (&rubis.DBServer{DB: dataset, Transport: dbT}).Run)
	for i, wt := range []*secio.Transport{web1T, web2T} {
		ws := &rubis.WebServer{
			Name:      fmt.Sprintf("acme-web%d", i+1),
			Config:    rubis.DefaultWebConfig,
			Transport: wt,
			DB:        rubis.NewDBClient(wt, dbLSI, 6),
		}
		sim.Spawn(ws.Name, ws.Run)
	}

	// Reverse proxy: plain front, HIP back.
	front := &secio.Transport{Kind: secio.Basic, Stack: simtcp.NewStack(lbNode, simtcp.NewPlainFabric(lbNode))}
	lb := &proxy.Proxy{Name: "haproxy", Front: front, Back: lbBackT, Policy: proxy.RoundRobin}
	lb.AddBackend("acme-web1", reg.LSI(web1ID.HIT()), rubis.WebPort)
	lb.AddBackend("acme-web2", reg.LSI(web2ID.HIT()), rubis.WebPort)
	sim.Spawn("haproxy", lb.Run)

	// Consumers (no HIP anywhere on their side).
	clientNode := cl.AttachExternal("clients", 8, 8)
	clientT := &secio.Transport{Kind: secio.Basic, Stack: simtcp.NewStack(clientNode, simtcp.NewPlainFabric(clientNode))}
	mix := rubis.NewMix(1, dataset.NumItems(), dataset.NumUsers())
	load := &workload.ClosedLoop{
		Transport: clientT, Target: lbNode.Addr(), Port: proxy.FrontPort,
		Clients: 8, Duration: 10 * time.Second, NextPath: mix.Next,
	}
	res := load.Run(sim)

	// The rival tenant tries to reach tenant A's DB directly: its HIT is
	// not in the ACL, so the firewall (and the DB's own policy) refuse.
	// Its identity is derived from a fixed seed, so the spy replays run to
	// run, and its host is seeded from that identity: it holds its own DH
	// key, not the victim's.
	spyID := identity.MustGenerateDeterministic(identity.AlgECDSA, "multitenant/rival-spy")
	spyHost, _ := hip.NewHost(hip.Config{Identity: spyID, Locator: spy.Addr(), Costs: costs})
	spyT := &secio.Transport{Kind: secio.HIP, Stack: simtcp.NewStack(spy.Node, hipsim.New(spy.Node, spyHost, reg)), DialTimeout: 3 * time.Second}
	var spyErr error
	sim.Spawn("rival-spy", func(p *netsim.Proc) {
		_, spyErr = spyT.Dial(p, dbID.HIT(), rubis.DBPort)
	})

	sim.Run(30 * time.Second)
	sim.Shutdown()

	fmt.Printf("consumers: %d requests served through the HIP-terminating proxy (%.1f req/s, %d errors)\n",
		res.Completed, res.Throughput(), res.Errors)
	fmt.Printf("rival tenant's direct dial to acme-db: %v\n", spyErr)
	fmt.Printf("firewall: %d SPIs learned, %d ESP packets forwarded, %d control packets dropped\n",
		mb.LearnedSPIs(), mb.ESPForwarded, mb.ControlDropped)
	if spyErr == nil {
		log.Fatal("ISOLATION FAILURE: rival reached tenant A's database")
	}
	fmt.Println("multi-tenant isolation holds: competing tenant locked out, consumer traffic unaffected")
}
