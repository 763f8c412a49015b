package experiments

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"net/netip"
	"testing"
	"time"

	"hipcloud/internal/cloud"
	"hipcloud/internal/identity"
	"hipcloud/internal/keymat"
	"hipcloud/internal/netsim"
	"hipcloud/internal/secio"
	"hipcloud/internal/tlslite"
)

// packetEvent is one tx, rx or drop that netsim's tracer reported, with
// the payload bytes folded into a hash.
type packetEvent struct {
	sim      int // which of the run's simulations, in the order they were built
	at       netsim.VTime
	kind     netsim.TraceKind
	node     string
	src, dst netip.AddrPort
	proto    netsim.Proto
	size     int
	payload  uint64
}

func (e packetEvent) String() string {
	return fmt.Sprintf("sim %d t=%v %s at %s: %v → %v %v size %d payload %016x",
		e.sim, time.Duration(e.at), e.kind, e.node, e.src, e.dst, e.proto, e.size, e.payload)
}

// packetTrace is one run's packet events and their digest.
type packetTrace struct {
	events []packetEvent
	digest hash.Hash64
	sims   int
	buf    []byte
}

func (tr *packetTrace) add(e packetEvent) {
	b := binary.LittleEndian.AppendUint64(tr.buf[:0], uint64(e.at))
	b = append(b, byte(e.sim), byte(e.kind), byte(e.proto))
	b = append(b, e.node...)
	b, _ = e.src.AppendBinary(b)
	b, _ = e.dst.AppendBinary(b)
	b = binary.LittleEndian.AppendUint64(b, uint64(e.size))
	b = binary.LittleEndian.AppendUint64(b, e.payload)
	tr.digest.Write(b)
	tr.buf = b
	tr.events = append(tr.events, e)
}

// trace runs fn with every simulation it builds reporting its packets.
func trace(fn func() string) (string, *packetTrace) {
	tr := &packetTrace{digest: fnv.New64a()}
	payload := fnv.New64a()
	defer func(orig func(int64) *netsim.Sim) { newSim = orig }(newSim)
	newSim = func(seed int64) *netsim.Sim {
		s := netsim.New(seed)
		tr.sims++
		sim := tr.sims
		s.SetTracer(func(at netsim.VTime, kind netsim.TraceKind, node string, pkt *netsim.Packet, _ string) {
			payload.Reset()
			payload.Write(pkt.Payload)
			tr.add(packetEvent{sim, at, kind, node, pkt.Src, pkt.Dst, pkt.Proto, pkt.Size, payload.Sum64()})
		})
		return s
	}
	return fn(), tr
}

// refereeRuns is every experiment benchcloud -run offers, each at a scale
// small enough to run twice in every test binary. Each run returns what
// the experiment renders.
var refereeRuns = []struct {
	name string
	run  func() string
}{
	{"fig2", func() string {
		_, tbl := RunFig2(Fig2Config{Duration: time.Second, Warmup: 250 * time.Millisecond, Clients: []int{4}, Seed: 1})
		return tbl.String()
	}},
	{"fig2-aead", func() string {
		pt := RunFig2Point(Fig2Config{Duration: time.Second, Warmup: 250 * time.Millisecond, Seed: 1, TLSSuites: tlslite.PreferredSuites}, secio.SSL, 4)
		return fmt.Sprint(pt)
	}},
	{"rtt", func() string {
		_, tbl := RunResponseTimes(RTConfig{Duration: time.Second, Warmup: 250 * time.Millisecond, Seed: 1})
		return tbl.String()
	}},
	{"fig3", func() string {
		_, tbl, err := RunFig3(Fig3Config{Bytes: 128 << 10, Pings: 4, Seed: 1})
		return fmt.Sprint(tbl, err)
	}},
	{"fig3-modern", func() string {
		_, tbl, err := RunFig3(Fig3Config{Bytes: 128 << 10, Pings: 4, Seed: 1, Suites: keymat.PreferredAEAD})
		return fmt.Sprint(tbl, err)
	}},
	{"private", func() string {
		pt := RunFig2Point(Fig2Config{Profile: cloud.OpenNebula, Duration: time.Second, Warmup: 250 * time.Millisecond, Seed: 1}, secio.HIP, 4)
		_, rt := RunResponseTimes(RTConfig{Profile: cloud.OpenNebula, Duration: time.Second, Warmup: 250 * time.Millisecond, Seed: 1})
		return fmt.Sprint(pt, rt)
	}},
	{"bex", func() string {
		rsa, err1 := runBEXOnce(identity.AlgRSA, 4, 1)
		ecc, err2 := runBEXOnce(identity.AlgECDSA, 8, 1)
		return fmt.Sprint(rsa, err1, ecc, err2)
	}},
	{"dos-fixed", func() string {
		r, err := RunDoS(DoSConfig{Bots: 2, Duration: 5 * time.Second, Seed: 1})
		return fmt.Sprint(r, err)
	}},
	{"dos-adaptive", func() string {
		r, err := RunDoS(DoSConfig{Bots: 2, Adaptive: true, Duration: 5 * time.Second, Seed: 1})
		return fmt.Sprint(r, err)
	}},
	{"chaos", func() string {
		_, tbl := RunChaos(ChaosConfig{Duration: 4 * time.Second, Clients: 2, Seed: 1})
		return tbl.String()
	}},
	{"storm", func() string {
		_, tbl := RunStorm(StormConfig{Duration: 4 * time.Second, Servers: 2, Clients: 8, Seed: 1})
		return tbl.String()
	}},
}

// TestSameSeedRunsAreIdentical is the simulator's determinism referee.
// Every experiment runs twice with one seed in this one process, and the
// two runs must send, deliver and drop the same packets, byte for byte,
// at the same virtual instants, and render the same result. Go randomizes
// map iteration per range and seeds the global math/rand per process, so
// a wall-clock read, a global-rand draw or a map-ordered emission on a
// path an experiment takes shows up here, named by the first packet event
// where the runs part.
func TestSameSeedRunsAreIdentical(t *testing.T) {
	for _, r := range refereeRuns {
		t.Run(r.name, func(t *testing.T) {
			want, a := trace(r.run)
			got, b := trace(r.run)
			t.Logf("%d packet events in %d simulations", len(a.events), a.sims)
			if a.digest.Sum64() != b.digest.Sum64() {
				i := 0
				for i < len(a.events) && i < len(b.events) && a.events[i] == b.events[i] {
					i++
				}
				t.Errorf("%s: same-seed runs diverge at packet event %d (of %d and %d):\n  first run:  %s\n  second run: %s",
					r.name, i, len(a.events), len(b.events), eventAt(a.events, i), eventAt(b.events, i))
			}
			if got != want {
				t.Errorf("%s: same-seed runs render different results:\n%s\nvs\n%s", r.name, want, got)
			}
		})
	}
}

func eventAt(events []packetEvent, i int) string {
	if i < len(events) {
		return events[i].String()
	}
	return "end of trace"
}
