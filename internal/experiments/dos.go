package experiments

import (
	"fmt"
	"time"

	"hipcloud/internal/cloud"
	"hipcloud/internal/hip"
	"hipcloud/internal/hipsim"
	"hipcloud/internal/identity"
	"hipcloud/internal/metrics"
	"hipcloud/internal/netsim"
	"hipcloud/internal/puzzle"
)

// DoSResult measures a base-exchange flood against a responder.
type DoSResult struct {
	Adaptive bool
	Bots     int
	// AttackerBEX counts completed hostile base exchanges.
	AttackerBEX uint64
	// LegitLatency is the mean BEX latency of the well-behaved client
	// during the attack.
	LegitLatency time.Duration
	// LegitOK/LegitTried count the legitimate client's attempts.
	LegitOK, LegitTried int
	// ResponderBusy is responder CPU consumed during the run.
	ResponderBusy time.Duration
	// FinalK is the highest puzzle difficulty the responder put in an R1.
	// Difficulty is chosen per initiator, so no single K is the one the
	// responder ended at.
	FinalK uint8
}

// DoSConfig parameterizes the attack experiment.
type DoSConfig struct {
	Bots     int
	Adaptive bool // load-adaptive puzzle difficulty vs fixed trivial puzzles
	Duration time.Duration
	Seed     int64
}

// RunDoS quantifies the paper's §IV-B DoS argument: hostile bots hammer a
// responder with full base exchanges while one honest client keeps
// re-associating. With adaptive puzzle difficulty the responder pushes
// ~2^K hash work onto each hostile attempt, throttling the attack; with
// trivial puzzles the bots monopolize the responder's CPU.
func RunDoS(cfg DoSConfig) (DoSResult, error) {
	if cfg.Bots <= 0 {
		cfg.Bots = 12
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 20 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	res := DoSResult{Adaptive: cfg.Adaptive, Bots: cfg.Bots}

	s := newSim(cfg.Seed)
	n := netsim.NewNetwork(s)
	cl := cloud.New(n, cloud.EC2)
	tenant := &cloud.Tenant{Name: "victim", VLAN: 1}
	victim := cl.Zones[0].Launch("victim", cloud.Micro, tenant)
	legit := cl.Zones[0].Launch("legit", cloud.Micro, tenant)
	costs := cloud.HIPCosts(false) // ECDSA keeps identity generation fast

	diff := puzzle.Difficulty{BaseK: 1, MaxK: 1, LowWater: 1, HighWater: 2}
	if cfg.Adaptive {
		diff = puzzle.Difficulty{BaseK: 1, MaxK: 20, LowWater: 2, HighWater: 6}
	}
	reg := hipsim.NewRegistry()
	victimID := identity.MustGenerateDeterministic(identity.AlgECDSA, fmt.Sprintf("dos/%d/victim", cfg.Seed))
	victimHost, err := hip.NewHost(hip.Config{
		Identity: victimID, Locator: victim.Addr(), Costs: costs, Puzzle: diff,
	})
	if err != nil {
		return res, err
	}
	_ = hipsim.New(victim.Node, victimHost, reg) // responder fabric (kernel proc serves BEXes)

	// Hostile bots: each completes base exchanges in a loop, tearing the
	// association down and re-associating (worst case for the responder:
	// full asymmetric work every time). Their own CPUs pay for puzzles.
	for i := 0; i < cfg.Bots; i++ {
		bot := cl.Zones[0].Launch("bot"+itoa(i), cloud.Micro, tenant)
		botID := identity.MustGenerateDeterministic(identity.AlgECDSA, fmt.Sprintf("dos/%d/bot%d", cfg.Seed, i))
		botHost, err := hip.NewHost(hip.Config{Identity: botID, Locator: bot.Addr(), Costs: costs})
		if err != nil {
			return res, err
		}
		botF := hipsim.New(bot.Node, botHost, reg)
		s.Spawn("bot", func(p *netsim.Proc) {
			end := p.Now() + cfg.Duration
			for p.Now() < end {
				if err := botF.Establish(p, victimID.HIT()); err == nil {
					res.AttackerBEX++
					botHost.Close(victimID.HIT(), p.Now())
					p.Sleep(10 * time.Millisecond)
				} else {
					p.Sleep(100 * time.Millisecond)
				}
			}
		})
	}

	// The honest client re-associates periodically and measures latency.
	legitID := identity.MustGenerateDeterministic(identity.AlgECDSA, fmt.Sprintf("dos/%d/legit", cfg.Seed))
	legitHost, err := hip.NewHost(hip.Config{Identity: legitID, Locator: legit.Addr(), Costs: costs})
	if err != nil {
		return res, err
	}
	legitF := hipsim.New(legit.Node, legitHost, reg)
	var lat metrics.Histogram
	s.Spawn("legit", func(p *netsim.Proc) {
		p.Sleep(2 * time.Second) // let the attack ramp
		end := p.Now() + cfg.Duration - 4*time.Second
		for p.Now() < end {
			start := p.Now()
			res.LegitTried++
			if err := legitF.Establish(p, victimID.HIT()); err == nil {
				res.LegitOK++
				lat.Add(p.Now() - start)
				legitHost.Close(victimID.HIT(), p.Now())
			}
			p.Sleep(500 * time.Millisecond)
		}
	})

	s.Run(cfg.Duration + 20*time.Second)
	res.LegitLatency = lat.Mean()
	res.ResponderBusy = victim.Node.CPU().BusyTime()
	res.FinalK = victimHost.PeakPuzzleK
	s.Shutdown()
	return res, nil
}

// RunDoSTable compares fixed vs adaptive puzzles under the same attack,
// each run lasting dur of virtual time (zero: RunDoS's 20 s default).
func RunDoSTable(seed int64, dur time.Duration) ([]DoSResult, *metrics.Table, error) {
	tbl := metrics.NewTable(
		"§IV-B — I1/BEX flood: fixed vs load-adaptive puzzle difficulty",
		"puzzles", "hostile BEX", "legit BEX ok", "legit mean latency", "responder CPU", "max K issued")
	var out []DoSResult
	for _, adaptive := range []bool{false, true} {
		r, err := RunDoS(DoSConfig{Adaptive: adaptive, Duration: dur, Seed: seed})
		if err != nil {
			return out, tbl, err
		}
		out = append(out, r)
		name := "fixed (K=1)"
		if adaptive {
			name = "adaptive (K→20)"
		}
		tbl.Row(name, int(r.AttackerBEX), r.LegitOK, r.LegitLatency, r.ResponderBusy, int(r.FinalK))
	}
	tbl.Caption = "adaptive puzzles throttle hostile associations by charging attackers ~2^K hashes each"
	return out, tbl, nil
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}
