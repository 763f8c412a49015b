// Package faults is a deterministic, virtual-time fault-injection layer
// for the netsim/cloud testbed: scheduled link flaps, network partitions
// (pairwise node groups; zone-level via the cloud package's inter-zone
// links), packet corruption/duplication/reordering windows, NAT mapping
// resets, node power events and CPU stalls.
//
// Every fault is scheduled on the simulation's event queue and every
// random choice draws from the simulation's seeded RNG, so a chaos run is
// exactly reproducible: same seed, same schedule, same packet-level
// outcome (the experiments package's same-seed referee checks it). The
// injector keeps an ordered log of what fired when, for experiment
// reports.
//
// Buffer ownership of injected packets follows DESIGN.md §5: corruption
// delivers a freshly allocated bit-flipped copy and abandons the original
// in transit (the link cannot know whether the sender retains it, e.g. a
// HIP retransmission buffer, so it must neither mutate nor recycle it);
// duplicates likewise travel in their own allocations.
package faults

import (
	"fmt"
	"time"

	"hipcloud/internal/netsim"
)

// Record is one fault transition, for reports and determinism checks.
type Record struct {
	At   time.Duration
	What string
}

func (r Record) String() string { return fmt.Sprintf("%v %s", r.At, r.What) }

// Impairment parameterizes a link degradation window. Probabilities are
// per packet; draws come from the simulation RNG.
type Impairment struct {
	// DropProb drops the packet.
	DropProb float64
	// CorruptProb delivers a bit-flipped copy instead (dropped by any
	// integrity-checked receiver: ESP ICV, TLS MAC).
	CorruptProb float64
	// DupProb delivers the packet twice.
	DupProb float64
	// ReorderProb delays the packet by ReorderDelay, letting later
	// packets overtake it.
	ReorderProb  float64
	ReorderDelay time.Duration
}

// Injector schedules faults against one simulation. All methods must be
// called before or during the run from scheduler context; schedules
// registered after a fault's time fire immediately (netsim clamps past
// events to now).
type Injector struct {
	sim *netsim.Sim
	log []Record

	// rules holds active partition rules per managed node; each managed
	// node carries one composite FaultFilter walking its slice (insertion
	// order, never a map, so drop decisions are deterministic).
	rules map[*netsim.Node][]*partRule

	// onNodeDown callbacks fire (in registration order) whenever DownNode
	// powers a node off — the hook control-plane services use to learn of
	// crashes out of band, e.g. a rendezvous server unregistering the
	// dead host's locator instead of waiting out the registration TTL.
	onNodeDown []func(*netsim.Node)
}

// partRule blocks traffic between two node groups. Membership is decided
// at packet time by resolving the source address to its owning node, so
// rules survive address changes (migration) during the partition.
type partRule struct {
	blocked map[*netsim.Node]bool // peers this side must not hear from
}

// New creates an injector bound to sim.
func New(sim *netsim.Sim) *Injector {
	return &Injector{sim: sim, rules: make(map[*netsim.Node][]*partRule)}
}

// Log returns the ordered fault transitions so far.
func (in *Injector) Log() []Record { return in.log }

func (in *Injector) record(what string) {
	in.log = append(in.log, Record{At: in.sim.Now(), What: what})
}

// FlapLink takes a link down at `at` and back up dur later. A zero dur
// leaves it down for good (a cut cable).
func (in *Injector) FlapLink(l *netsim.Link, name string, at, dur time.Duration) {
	in.sim.At(at, func() {
		l.Down = true
		in.record("link down: " + name)
	})
	if dur > 0 {
		in.sim.At(at+dur, func() {
			l.Down = false
			in.record("link up: " + name)
		})
	}
}

// ImpairLink degrades a link with imp between at and at+dur. Windows must
// not overlap on the same link (the later install would clobber the
// earlier restore).
func (in *Injector) ImpairLink(l *netsim.Link, name string, at, dur time.Duration, imp Impairment) {
	in.sim.At(at, func() {
		rng := in.sim.Rand()
		l.Fault = func(pkt *netsim.Packet) netsim.FaultDecision {
			var fd netsim.FaultDecision
			if imp.DropProb > 0 && rng.Float64() < imp.DropProb {
				fd.Drop = true
				return fd
			}
			if imp.CorruptProb > 0 && rng.Float64() < imp.CorruptProb {
				fd.Corrupt = true
			}
			if imp.DupProb > 0 && rng.Float64() < imp.DupProb {
				fd.Duplicate = true
			}
			if imp.ReorderProb > 0 && rng.Float64() < imp.ReorderProb {
				fd.Delay = imp.ReorderDelay
			}
			return fd
		}
		in.record("impair on: " + name)
	})
	in.sim.At(at+dur, func() {
		l.Fault = nil
		in.record("impair off: " + name)
	})
}

// Partition severs all traffic between groups a and b from at until
// at+dur (zero dur: permanent). Nodes not in either group are unaffected;
// membership is tracked by node identity, so addresses gained during the
// partition (a migrated VM) stay partitioned too.
func (in *Injector) Partition(name string, at, dur time.Duration, a, b []*netsim.Node) {
	rule := &partRule{blocked: make(map[*netsim.Node]bool)}
	peer := &partRule{blocked: make(map[*netsim.Node]bool)}
	for _, n := range b {
		rule.blocked[n] = true
	}
	for _, n := range a {
		peer.blocked[n] = true
	}
	in.sim.At(at, func() {
		for _, n := range a {
			in.addRule(n, rule)
		}
		for _, n := range b {
			in.addRule(n, peer)
		}
		in.record("partition: " + name)
	})
	if dur > 0 {
		in.sim.At(at+dur, func() {
			for _, n := range a {
				in.dropRule(n, rule)
			}
			for _, n := range b {
				in.dropRule(n, peer)
			}
			in.record("heal: " + name)
		})
	}
}

func (in *Injector) addRule(n *netsim.Node, r *partRule) {
	if len(in.rules[n]) == 0 {
		net := n.Net()
		node := n
		node.FaultFilter = func(pkt *netsim.Packet) bool {
			src := net.NodeByAddr(pkt.Src.Addr())
			if src == nil {
				return true
			}
			for _, rule := range in.rules[node] {
				if rule.blocked[src] {
					return false
				}
			}
			return true
		}
	}
	in.rules[n] = append(in.rules[n], r)
}

func (in *Injector) dropRule(n *netsim.Node, r *partRule) {
	rs := in.rules[n]
	for i, x := range rs {
		if x == r {
			rs = append(rs[:i], rs[i+1:]...)
			break
		}
	}
	in.rules[n] = rs
	if len(rs) == 0 {
		n.FaultFilter = nil
	}
}

// OnNodeDown registers fn to run whenever DownNode takes a node down.
func (in *Injector) OnNodeDown(fn func(*netsim.Node)) {
	in.onNodeDown = append(in.onNodeDown, fn)
}

// DownNode powers a node off at `at` and back on dur later (zero dur:
// stays down). Processes on the node keep running; its traffic dies.
func (in *Injector) DownNode(n *netsim.Node, at, dur time.Duration) {
	in.sim.At(at, func() {
		n.Down = true
		in.record("node down: " + n.Name())
		for _, fn := range in.onNodeDown {
			fn(n)
		}
	})
	if dur > 0 {
		in.sim.At(at+dur, func() {
			n.Down = false
			in.record("node up: " + n.Name())
		})
	}
}

// ResetNAT flushes a NAT's mapping table at `at` (middlebox reboot).
func (in *Injector) ResetNAT(nat *netsim.NAT, name string, at time.Duration) {
	in.sim.At(at, func() {
		nat.Reset()
		in.record("nat reset: " + name)
	})
}

// StallCPU seizes every core of a node for dur starting at `at`: requests
// queued behind the stall see it as a hung backend, not slow service.
func (in *Injector) StallCPU(n *netsim.Node, at, dur time.Duration) {
	in.sim.At(at, func() {
		in.record("cpu stall: " + n.Name())
		for i := 0; i < n.CPU().Cores(); i++ {
			in.sim.Spawn(fmt.Sprintf("stall/%s/%d", n.Name(), i), func(p *netsim.Proc) {
				n.CPU().Stall(p, dur)
			})
		}
		in.sim.After(dur, func() { in.record("cpu release: " + n.Name()) })
	})
}

// At schedules an arbitrary fault callback, recorded under what — the
// escape hatch for scenario-specific events (e.g. cloud.Crash + restart
// sequences) that should appear in the fault log with everything else.
func (in *Injector) At(at time.Duration, what string, fn func()) {
	in.sim.At(at, func() {
		in.record(what)
		if fn != nil {
			fn()
		}
	})
}
