// Package cloud models an IaaS deployment on top of the netsim simulator:
// regions and availability zones, physical hosts, instance types with
// 2012-era EC2 capacities, tenants, VLAN segmentation (the related-work
// baseline), VM placement and live migration.
//
// Two profiles reproduce the paper's testbeds: the Amazon EC2 eu-west-1a
// public cloud and an OpenNebula 3.0 private cloud.
package cloud

import (
	"fmt"
	"net/netip"
	"time"

	"hipcloud/internal/netsim"
)

// InstanceType captures compute capacity of a VM flavour.
type InstanceType struct {
	Name  string
	Cores int
	// Speed is the per-core speed in EC2 compute units (1 ECU ≈ a
	// 2007-era 1.0–1.2 GHz Opteron core, the cost model's reference).
	Speed float64
	MemMB int
}

// The instance types the paper's experiment used (EC2, 2012 pricing page),
// plus the OpenNebula host flavour for the private-cloud cross-check.
var (
	// Micro: 613 MB, "up to 2 ECU" in bursts; sustained throughput is far
	// lower, which is what matters for saturation experiments.
	Micro = InstanceType{Name: "t1.micro", Cores: 1, Speed: 1.0, MemMB: 613}
	// Large: 7.5 GB, 4 ECU on 2 cores.
	Large = InstanceType{Name: "m1.large", Cores: 2, Speed: 2.0, MemMB: 7680}
	// ONVirtual mirrors the private-cloud KVM flavour: slightly faster
	// cores than micro (commodity 2012 Xeon), otherwise equivalent.
	ONVirtual = InstanceType{Name: "on.virtual", Cores: 1, Speed: 1.2, MemMB: 1024}
	// ONLarge is the private-cloud database flavour.
	ONLarge = InstanceType{Name: "on.large", Cores: 2, Speed: 2.4, MemMB: 8192}
)

// Profile selects testbed characteristics.
type Profile struct {
	Name string
	// Intra-zone link characteristics between a VM and the zone switch.
	LinkLatency   time.Duration
	LinkBandwidth float64 // bytes/sec
	LinkJitter    time.Duration
	// WANLatency is the latency between the load balancer (outside the
	// cloud, as in the paper) and the zone switch.
	WANLatency time.Duration
	// Web/DB instance flavours.
	WebType, DBType InstanceType
}

// EC2 reproduces the paper's public-cloud deployment: micro web servers,
// one large DB, EU region zone eu-west-1a. Link characteristics derive
// from the paper's own measurements: iperf between two instances reached
// ≈140 Mbit/s and ICMP RTT ≈0.5 ms (Figure 3).
var EC2 = Profile{
	Name:          "amazon-ec2/eu-west-1a",
	LinkLatency:   125 * time.Microsecond, // ≈0.5ms RTT via switch
	LinkBandwidth: 17.5e6,                 // ≈140 Mbit/s
	LinkJitter:    30 * time.Microsecond,
	// Clients/jmeter ran outside the cloud: a realistic WAN leg puts the
	// basic response-time baseline in the paper's ~116 ms regime
	// (connect + request + one window-growth round trip + service).
	WANLatency: 15 * time.Millisecond,
	WebType:    Micro,
	DBType:     Large,
}

// OpenNebula is the private-cloud cross-check profile: a quieter LAN with
// lower latency and a faster physical network.
var OpenNebula = Profile{
	Name:          "opennebula-3.0/private",
	LinkLatency:   80 * time.Microsecond,
	LinkBandwidth: 60e6, // ≈480 Mbit/s on the private GbE
	LinkJitter:    10 * time.Microsecond,
	WANLatency:    5 * time.Millisecond,
	WebType:       ONVirtual,
	DBType:        ONLarge,
}

// Tenant identifies a cloud subscriber; VLAN ids segment tenants in the
// related-work baseline.
type Tenant struct {
	Name string
	VLAN uint16
}

// VM is one virtual machine: a simulated node plus cloud metadata.
type VM struct {
	Name     string
	Node     *netsim.Node
	Type     InstanceType
	Tenant   *Tenant
	Zone     *Zone
	PhysHost int // physical host index within the zone (co-residency)
	addrs    []netip.Addr
	// link is the access link of the current primary interface (replaced
	// on Migrate); fault injection flaps or severs it.
	link *netsim.Link
}

// Addr returns the VM's primary address.
func (v *VM) Addr() netip.Addr { return v.addrs[0] }

// AccessLink returns the link behind the VM's primary interface.
func (v *VM) AccessLink() *netsim.Link { return v.link }

// Crash powers the VM off: its node stops sending and receiving, but
// simulated processes keep running (they just can't reach the network),
// matching a hypervisor pause / host failure from the network's view.
func (v *VM) Crash() { v.Node.Down = true }

// RestartIn recovers a crashed VM into zone `to`, reusing the migration
// machinery: power back on, then attach a fresh interface in the target
// zone. The new primary address is returned; transports bound to the old
// locator need HIP UPDATE (or a reconnect) to follow, exactly as for a
// live migration.
func (v *VM) RestartIn(to *Zone) netip.Addr {
	v.Node.Down = false
	return v.Zone.cloud.Migrate(v, to)
}

// DefaultHostCapacity is how many VMs a physical host accepts unless the
// zone overrides it (two, matching the co-residency setup of §III-B).
const DefaultHostCapacity = 2

// Zone is one availability zone: a switch with VMs attached.
type Zone struct {
	Name   string
	Router *netsim.Node
	cloud  *Cloud
	nextIP uint32
	subnet netip.Prefix
	vms    []*VM
	// HostCapacity is the number of VMs a physical host in this zone
	// accepts (0 = DefaultHostCapacity). Placement is first-fit: each
	// host fills to capacity before the next opens, so consecutive
	// launches co-reside and an evacuation packs into surviving hosts.
	HostCapacity int
	// hostLoad tracks resident VMs per physical host index; failedHosts
	// marks hosts removed from placement (Evacuate).
	hostLoad    []int
	failedHosts map[int]bool
	// uplinks maps peer zones to the next-hop address reaching them.
	uplinks map[*Zone]netip.Addr
	// links retains the inter-zone link objects for fault injection.
	links map[*Zone]*netsim.Link
}

// VMs returns the VMs currently resident in the zone, in arrival order
// (launches append; migrations move membership to the target zone).
func (z *Zone) VMs() []*VM { return z.vms }

func (z *Zone) capacity() int {
	if z.HostCapacity > 0 {
		return z.HostCapacity
	}
	return DefaultHostCapacity
}

// placeVM assigns a physical host first-fit, skipping failed hosts and
// opening a fresh host when every existing one is full.
func (z *Zone) placeVM() int {
	for i, n := range z.hostLoad {
		if z.failedHosts[i] || n >= z.capacity() {
			continue
		}
		z.hostLoad[i]++
		return i
	}
	z.hostLoad = append(z.hostLoad, 1)
	return len(z.hostLoad) - 1
}

// releaseVM returns a VM's slot on its physical host.
func (z *Zone) releaseVM(host int) {
	if host >= 0 && host < len(z.hostLoad) && z.hostLoad[host] > 0 {
		z.hostLoad[host]--
	}
}

// Load reports the zone's resident VM count (live, post-migration).
func (z *Zone) Load() int {
	total := 0
	for _, n := range z.hostLoad {
		total += n
	}
	return total
}

// HostVMs returns the VMs resident on one physical host, in arrival order.
func (z *Zone) HostVMs(host int) []*VM {
	var out []*VM
	for _, vm := range z.vms {
		if vm.PhysHost == host {
			out = append(out, vm)
		}
	}
	return out
}

// Cloud is a deployment of one or more zones.
type Cloud struct {
	Profile Profile
	Sim     *netsim.Sim
	Net     *netsim.Network
	Zones   []*Zone
	vms     map[string]*VM
	// vlanFilter, when enabled, drops traffic between VMs of different
	// VLANs at the zone router (the 802.1Q baseline of §VI-A).
	vlanFilter bool
	vlanOf     map[netip.Addr]uint16
	external   int // count of external hosts for addressing
}

// New creates a cloud with one zone ("a") on the given network.
func New(n *netsim.Network, profile Profile) *Cloud {
	c := &Cloud{
		Profile: profile,
		Sim:     n.Sim(),
		Net:     n,
		vms:     make(map[string]*VM),
		vlanOf:  make(map[netip.Addr]uint16),
	}
	c.AddZone("a")
	return c
}

// AddZone creates a new availability zone.
func (c *Cloud) AddZone(name string) *Zone {
	idx := len(c.Zones)
	z := &Zone{
		Name:        fmt.Sprintf("%s/zone-%s", c.Profile.Name, name),
		Router:      c.Net.AddRouter(fmt.Sprintf("zsw-%s-%d", name, idx)),
		cloud:       c,
		subnet:      netip.MustParsePrefix(fmt.Sprintf("10.%d.0.0/16", 10+idx)),
		failedHosts: make(map[int]bool),
		uplinks:     make(map[*Zone]netip.Addr),
		links:       make(map[*Zone]*netsim.Link),
	}
	// Inter-zone links: connect each new zone to every existing one.
	for _, prev := range c.Zones {
		a := c.interAddr()
		b := c.interAddr()
		l := c.Net.Connect(prev.Router, a, z.Router, b, netsim.Link{
			Latency:   750 * time.Microsecond,
			Bandwidth: c.Profile.LinkBandwidth,
		})
		prev.Router.AddRoute(z.subnet, b)
		z.Router.AddRoute(prev.subnet, a)
		prev.uplinks[z] = b
		z.uplinks[prev] = a
		prev.links[z] = l
		z.links[prev] = l
	}
	c.Zones = append(c.Zones, z)
	return z
}

// interAddr allocates addresses for inter-zone and external links.
func (c *Cloud) interAddr() netip.Addr {
	c.external++
	return netip.AddrFrom4([4]byte{172, 16, byte(c.external >> 8), byte(c.external)})
}

func (z *Zone) allocIP() netip.Addr {
	z.nextIP++
	b := z.subnet.Addr().As4()
	return netip.AddrFrom4([4]byte{b[0], b[1], byte(z.nextIP >> 8), byte(1 + z.nextIP&0xff)})
}

// Launch starts a VM of the given type in the zone. Placement is
// first-fit at Zone.HostCapacity VMs per physical host, so consecutive
// launches of different tenants co-reside — the multi-tenancy threat the
// paper opens with.
func (z *Zone) Launch(name string, t InstanceType, tenant *Tenant) *VM {
	node := z.cloud.Net.AddNode(name, t.Cores, t.Speed)
	addr := z.allocIP()
	gw := z.allocIP()
	l := z.cloud.Net.Connect(node, addr, z.Router, gw, netsim.Link{
		Latency:   z.cloud.Profile.LinkLatency,
		Bandwidth: z.cloud.Profile.LinkBandwidth,
		Jitter:    z.cloud.Profile.LinkJitter,
	})
	node.AddDefaultRoute(gw)
	vm := &VM{
		Name:     name,
		Node:     node,
		Type:     t,
		Tenant:   tenant,
		Zone:     z,
		PhysHost: z.placeVM(),
		addrs:    []netip.Addr{addr},
		link:     l,
	}
	z.vms = append(z.vms, vm)
	z.cloud.vms[name] = vm
	if tenant != nil {
		z.cloud.vlanOf[addr] = tenant.VLAN
	}
	return vm
}

// VM returns a VM by name.
func (c *Cloud) VM(name string) *VM { return c.vms[name] }

// InterZoneLink returns the link between two zones' routers, or nil if
// they are the same zone or not directly connected — the handle a fault
// schedule uses for zone-level partitions.
func (c *Cloud) InterZoneLink(a, b *Zone) *netsim.Link { return a.links[b] }

// CoResident reports whether two VMs share a physical host — the paper's
// §III-B scenario of competing tenants on one machine.
func CoResident(a, b *VM) bool {
	return a.Zone == b.Zone && a.PhysHost == b.PhysHost
}

// AttachExternal connects an external host (client, load balancer, power
// user) to the first zone's router over the WAN link.
func (c *Cloud) AttachExternal(name string, cores int, speed float64) *netsim.Node {
	return c.AttachExternalLink(name, cores, speed, c.Profile.WANLatency, c.Profile.LinkBandwidth*4)
}

// AttachExternalLink is AttachExternal with explicit link characteristics
// (e.g. a Teredo relay on a thinner pipe).
func (c *Cloud) AttachExternalLink(name string, cores int, speed float64, latency time.Duration, bandwidth float64) *netsim.Node {
	node := c.Net.AddNode(name, cores, speed)
	a := c.interAddr()
	b := c.interAddr()
	z := c.Zones[0]
	c.Net.Connect(node, a, z.Router, b, netsim.Link{
		Latency:   latency,
		Bandwidth: bandwidth,
	})
	node.AddDefaultRoute(b)
	// External hosts live in 172.16/16; other zones reach them via zone 0.
	ext := netip.MustParsePrefix("172.16.0.0/16")
	for _, zz := range c.Zones[1:] {
		if hop, ok := zz.uplinks[z]; ok {
			zz.Router.AddRoute(ext, hop)
		}
	}
	return node
}

// EnableVLANFilter turns on 802.1Q-style segmentation at every zone
// router: traffic between VMs of different tenants is dropped (Eucalyptus'
// default policy, per the paper's related work). Traffic involving
// external or same-tenant addresses passes.
func (c *Cloud) EnableVLANFilter() {
	c.vlanFilter = true
	filter := func(pkt *netsim.Packet) bool {
		sv, sok := c.vlanOf[pkt.Src.Addr()]
		dv, dok := c.vlanOf[pkt.Dst.Addr()]
		if sok && dok && sv != dv {
			return false
		}
		return true
	}
	for _, z := range c.Zones {
		z.Router.Filter = filter
	}
}

// Migrate moves a VM to another zone: the node gets a new interface in
// the target zone and the old attachment is abandoned (the address
// changes, which is exactly why the paper needs HIP UPDATE to keep
// connections alive). It returns the VM's new address.
func (c *Cloud) Migrate(vm *VM, to *Zone) netip.Addr {
	addr := to.allocIP()
	gw := to.allocIP()
	l := c.Net.Connect(vm.Node, addr, to.Router, gw, netsim.Link{
		Latency:   c.Profile.LinkLatency,
		Bandwidth: c.Profile.LinkBandwidth,
		Jitter:    c.Profile.LinkJitter,
	})
	vm.Node.AddDefaultRoute(gw)
	// The fresh attachment becomes primary: control traffic and replies
	// must source from the live locator, not the abandoned one.
	vm.Node.PromoteAddr(addr)
	vm.Zone.releaseVM(vm.PhysHost)
	if vm.Zone != to {
		vm.Zone.removeVM(vm)
		to.vms = append(to.vms, vm)
	}
	vm.Zone = to
	vm.PhysHost = to.placeVM()
	vm.addrs = append([]netip.Addr{addr}, vm.addrs...)
	vm.link = l
	if vm.Tenant != nil {
		c.vlanOf[addr] = vm.Tenant.VLAN
	}
	return addr
}

// removeVM drops a VM from the zone's residency list, preserving order.
func (z *Zone) removeVM(vm *VM) {
	for i, v := range z.vms {
		if v == vm {
			z.vms = append(z.vms[:i], z.vms[i+1:]...)
			return
		}
	}
}

// Evacuate fails physical host `host` in zone z: its access links go
// down and every resident VM rehomes at once via Migrate — the
// synchronized locator change that fires a HIP UPDATE storm from every
// association those VMs hold. VMs move in arrival order, each to the
// least-loaded zone (first-fit within it, skipping failed hosts), so the
// herd packs into surviving capacity. It returns the moved VMs in the
// order they moved; callers propagate the new locators (hipsim MoveTo,
// RVS refresh, DNS update) exactly as for a planned migration.
func (c *Cloud) Evacuate(z *Zone, host int) []*VM {
	z.failedHosts[host] = true
	var moved []*VM
	for _, vm := range z.HostVMs(host) {
		if vm.link != nil {
			// The dying host's uplink goes dark: in-flight packets to the
			// old locator are lost, not delivered by a ghost.
			vm.link.Down = true
		}
		c.Migrate(vm, c.leastLoadedZone())
		moved = append(moved, vm)
	}
	return moved
}

// leastLoadedZone picks the zone with the fewest resident VMs (first in
// index order on ties — deterministic).
func (c *Cloud) leastLoadedZone() *Zone {
	best := c.Zones[0]
	for _, z := range c.Zones[1:] {
		if z.Load() < best.Load() {
			best = z
		}
	}
	return best
}
