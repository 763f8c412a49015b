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

// BEXPoint measures base-exchange latency and CPU for one configuration.
type BEXPoint struct {
	Alg         identity.Algorithm
	PuzzleK     uint8
	WallLatency time.Duration // virtual time from Connect to ESTABLISHED
	InitCPU     time.Duration // initiator CPU consumed
	RespCPU     time.Duration // responder CPU consumed
}

// RunBEX measures base exchanges between two micro VMs with the given HI
// algorithm and puzzle difficulty, averaged over several seeds (puzzle
// solving has ~2^K mean but high variance). §IV-B processing-cost
// analysis; the ECDSA rows quantify the paper's "elliptic-curve
// cryptography can curb the processing costs" remark.
func RunBEX(alg identity.Algorithm, k uint8, seed int64) (BEXPoint, error) {
	const trials = 5
	var acc BEXPoint
	acc.Alg, acc.PuzzleK = alg, k
	for t := int64(0); t < trials; t++ {
		pt, err := runBEXOnce(alg, k, seed+t*7919)
		if err != nil {
			return acc, err
		}
		acc.WallLatency += pt.WallLatency
		acc.InitCPU += pt.InitCPU
		acc.RespCPU += pt.RespCPU
	}
	acc.WallLatency /= trials
	acc.InitCPU /= trials
	acc.RespCPU /= trials
	return acc, nil
}

func runBEXOnce(alg identity.Algorithm, k uint8, seed int64) (BEXPoint, error) {
	pt := BEXPoint{Alg: alg, PuzzleK: k}
	s := newSim(seed)
	n := netsim.NewNetwork(s)
	cl := cloud.New(n, cloud.EC2)
	a := cl.Zones[0].Launch("a", cloud.Micro, nil)
	b := cl.Zones[0].Launch("b", cloud.Micro, nil)
	reg := hipsim.NewRegistry()
	costs := cloud.HIPCosts(alg == identity.AlgRSA)
	diff := puzzle.Difficulty{BaseK: k, MaxK: k, LowWater: 1, HighWater: 2}
	mk := func(vm *cloud.VM) *hipsim.Fabric {
		id := identity.MustGenerateDeterministic(alg, fmt.Sprintf("bex/%d/%s", seed, vm.Node.Name()))
		h, err := hip.NewHost(hip.Config{Identity: id, Locator: vm.Addr(), Costs: costs, Puzzle: diff})
		if err != nil {
			panic(err)
		}
		return hipsim.New(vm.Node, h, reg)
	}
	fa, fb := mk(a), mk(b)
	var bexErr error
	var start, end netsim.VTime
	s.Spawn("bex", func(p *netsim.Proc) {
		start = p.Now()
		bexErr = fa.Establish(p, fb.Host().HIT())
		end = p.Now()
	})
	s.Run(time.Minute)
	pt.WallLatency = end - start
	pt.InitCPU = a.Node.CPU().BusyTime()
	pt.RespCPU = b.Node.CPU().BusyTime()
	s.Shutdown()
	return pt, bexErr
}

// RunBEXTable sweeps HI algorithms and puzzle difficulties.
func RunBEXTable(seed int64) ([]BEXPoint, *metrics.Table, error) {
	tbl := metrics.NewTable(
		"§IV-B — base exchange cost on micro instances",
		"HI alg", "puzzle K", "BEX latency", "initiator CPU", "responder CPU")
	var out []BEXPoint
	for _, alg := range []identity.Algorithm{identity.AlgRSA, identity.AlgECDSA} {
		for _, k := range []uint8{1, 8, 12, 16} {
			pt, err := RunBEX(alg, k, seed)
			if err != nil {
				return out, tbl, fmt.Errorf("bex %v k=%d: %w", alg, k, err)
			}
			out = append(out, pt)
			tbl.Row(pt.Alg.String(), int(pt.PuzzleK), pt.WallLatency, pt.InitCPU, pt.RespCPU)
		}
	}
	tbl.Caption = "control plane pays asymmetric crypto once per association; puzzle difficulty shifts work onto the initiator (DoS defense)"
	return out, tbl, nil
}

// PuzzlePoint measures solver effort at one difficulty.
type PuzzlePoint struct {
	K            uint8
	MeanAttempts float64
	SolveCPU     time.Duration // modeled initiator cost at that difficulty
}

// RunPuzzleSweep quantifies the DoS-protection knob: mean solver attempts
// (≈2^K) and the virtual CPU they cost an initiator.
func RunPuzzleSweep(ks []uint8, trials int, seed int64) ([]PuzzlePoint, *metrics.Table) {
	if len(ks) == 0 {
		ks = []uint8{0, 4, 8, 12, 16, 20}
	}
	if trials <= 0 {
		trials = 16
	}
	hitI := identity.MustGenerateDeterministic(identity.AlgECDSA, "puzzle-sweep/i").HIT()
	hitR := identity.MustGenerateDeterministic(identity.AlgECDSA, "puzzle-sweep/r").HIT()
	costs := cloud.HIPCosts(false)
	tbl := metrics.NewTable("Puzzle difficulty sweep (DoS defense)", "K", "mean attempts", "initiator CPU")
	var out []PuzzlePoint
	for _, k := range ks {
		var total uint64
		for t := 0; t < trials; t++ {
			_, attempts, err := puzzle.Solve(uint64(seed)+uint64(t)*7919, k, hitI, hitR, uint64(t)*104729)
			if err != nil {
				continue
			}
			total += attempts
		}
		mean := float64(total) / float64(trials)
		pt := PuzzlePoint{
			K:            k,
			MeanAttempts: mean,
			SolveCPU:     time.Duration(mean * float64(costs.HashOp)),
		}
		out = append(out, pt)
		tbl.Row(int(k), pt.MeanAttempts, pt.SolveCPU)
	}
	return out, tbl
}
