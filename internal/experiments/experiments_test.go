package experiments

import (
	"testing"
	"time"

	"hipcloud/internal/cloud"
	"hipcloud/internal/identity"
	"hipcloud/internal/secio"
)

// shortFig2 keeps unit-test runtime reasonable.
var shortFig2 = Fig2Config{Duration: 8 * time.Second, Warmup: 1 * time.Second, Clients: []int{4, 50}}

func TestFig2ShapeBasicWins(t *testing.T) {
	var byKind = map[secio.Kind]float64{}
	for _, kind := range []secio.Kind{secio.Basic, secio.HIP, secio.SSL} {
		pt := RunFig2Point(shortFig2, kind, 50)
		if pt.Throughput <= 0 {
			t.Fatalf("%v: zero throughput (errors=%d)", kind, pt.Errors)
		}
		byKind[kind] = pt.Throughput
		t.Logf("%v @50 clients: %.1f req/s, mean RT %v, errors %d", kind, pt.Throughput, pt.MeanRT, pt.Errors)
	}
	if byKind[secio.Basic] <= byKind[secio.HIP] || byKind[secio.Basic] <= byKind[secio.SSL] {
		t.Fatalf("basic (%.1f) must beat hip (%.1f) and ssl (%.1f)",
			byKind[secio.Basic], byKind[secio.HIP], byKind[secio.SSL])
	}
	ratio := byKind[secio.HIP] / byKind[secio.SSL]
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("hip/ssl ratio %.2f outside comparable band", ratio)
	}
}

func TestFig2ThroughputGrowsThenSaturates(t *testing.T) {
	t2 := RunFig2Point(shortFig2, secio.Basic, 2)
	t20 := RunFig2Point(shortFig2, secio.Basic, 30)
	t.Logf("basic: 2 clients %.1f req/s, 30 clients %.1f req/s", t2.Throughput, t20.Throughput)
	if t20.Throughput <= t2.Throughput {
		t.Fatalf("throughput did not grow with concurrency: %.1f -> %.1f", t2.Throughput, t20.Throughput)
	}
}

func TestResponseTimesOrdering(t *testing.T) {
	// Long enough that the ~2ms secured deltas clear the jitter noise.
	cfg := RTConfig{Duration: 40 * time.Second, Warmup: 4 * time.Second}
	pts, tbl := RunResponseTimes(cfg)
	t.Logf("\n%s", tbl)
	var basic, hip, ssl time.Duration
	for _, p := range pts {
		switch p.Kind {
		case secio.Basic:
			basic = p.Mean
		case secio.HIP:
			hip = p.Mean
		case secio.SSL:
			ssl = p.Mean
		}
		if p.Completed == 0 {
			t.Fatalf("%v: no completed requests", p.Kind)
		}
	}
	// The paper's headline here: all three "largely comparable", with
	// HIP slightly above SSL (LSI translation). HIP must be the slowest;
	// basic and SSL must stay within a few percent of each other (the
	// model puts SSL marginally below basic, a 2%-scale deviation noted
	// in EXPERIMENTS.md).
	if hip <= basic || hip <= ssl {
		t.Fatalf("hip (%v) should be slowest: basic=%v ssl=%v", hip, basic, ssl)
	}
	spread := float64(hip-basic) / float64(basic)
	if spread > 0.15 {
		t.Fatalf("scenarios not comparable: spread %.1f%%", spread*100)
	}
	if ssl > basic+basic/10 || basic > ssl+ssl/10 {
		t.Fatalf("basic (%v) and ssl (%v) diverged beyond noise", basic, ssl)
	}
}

func TestFig3Shape(t *testing.T) {
	cfg := Fig3Config{Bytes: 2 << 20, Pings: 8}
	pts, tbl, err := RunFig3(cfg)
	if err != nil {
		t.Fatalf("fig3: %v", err)
	}
	t.Logf("\n%s", tbl)
	get := func(m ConnMode) Fig3Point {
		for _, p := range pts {
			if p.Mode == m {
				return p
			}
		}
		t.Fatalf("missing mode %v", m)
		return Fig3Point{}
	}
	ipv4 := get(ModeIPv4)
	hit := get(ModeHITIPv4)
	lsi := get(ModeLSIIPv4)
	ter := get(ModeTeredo)
	hitT := get(ModeHITTeredo)

	// Bandwidth: IPv4 fastest, HIT below it, Teredo modes clearly lower.
	if ipv4.Mbps <= hit.Mbps {
		t.Errorf("IPv4 (%.1f) should beat HIT (%.1f)", ipv4.Mbps, hit.Mbps)
	}
	if hit.Mbps <= ter.Mbps {
		t.Errorf("HIT(IPv4) (%.1f) should beat Teredo (%.1f)", hit.Mbps, ter.Mbps)
	}
	if ter.Mbps <= hitT.Mbps*0.5 {
		t.Logf("teredo %.1f vs hit-teredo %.1f", ter.Mbps, hitT.Mbps)
	}
	// RTT: IPv4 < HIT < LSI; Teredo worst.
	if ipv4.MeanRTT >= hit.MeanRTT {
		t.Errorf("IPv4 RTT (%v) should beat HIT (%v)", ipv4.MeanRTT, hit.MeanRTT)
	}
	if hit.MeanRTT >= lsi.MeanRTT {
		t.Errorf("HIT RTT (%v) should beat LSI (%v) — translation penalty", hit.MeanRTT, lsi.MeanRTT)
	}
	if ter.MeanRTT <= lsi.MeanRTT {
		t.Errorf("Teredo RTT (%v) should be worst (lsi=%v)", ter.MeanRTT, lsi.MeanRTT)
	}
}

func TestBEXCostECCBelowRSA(t *testing.T) {
	rsa, err := RunBEX(identity.AlgRSA, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	ecc, err := RunBEX(identity.AlgECDSA, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("RSA: wall=%v init=%v resp=%v", rsa.WallLatency, rsa.InitCPU, rsa.RespCPU)
	t.Logf("ECC: wall=%v init=%v resp=%v", ecc.WallLatency, ecc.InitCPU, ecc.RespCPU)
	if ecc.RespCPU >= rsa.RespCPU {
		t.Fatalf("ECC responder CPU (%v) should undercut RSA (%v) — the paper's ECC remark", ecc.RespCPU, rsa.RespCPU)
	}
	if rsa.WallLatency <= 0 || ecc.WallLatency <= 0 {
		t.Fatal("zero BEX latency")
	}
}

func TestPuzzleSweepGrowsExponentially(t *testing.T) {
	pts, tbl := RunPuzzleSweep([]uint8{4, 8, 12}, 12, 1)
	t.Logf("\n%s", tbl)
	if len(pts) != 3 {
		t.Fatal("missing points")
	}
	if pts[1].MeanAttempts < 4*pts[0].MeanAttempts {
		t.Fatalf("K=8 attempts (%.0f) not ≫ K=4 (%.0f)", pts[1].MeanAttempts, pts[0].MeanAttempts)
	}
	if pts[2].MeanAttempts < 4*pts[1].MeanAttempts {
		t.Fatalf("K=12 attempts (%.0f) not ≫ K=8 (%.0f)", pts[2].MeanAttempts, pts[1].MeanAttempts)
	}
}

func TestPrivateCloudCrossCheck(t *testing.T) {
	// The OpenNebula profile must reproduce the same ordering (the
	// paper's §V-A validity cross-check).
	cfg := shortFig2
	cfg.Profile = cloud.OpenNebula
	basic := RunFig2Point(cfg, secio.Basic, 50)
	hip := RunFig2Point(cfg, secio.HIP, 50)
	t.Logf("opennebula: basic %.1f, hip %.1f req/s", basic.Throughput, hip.Throughput)
	if basic.Throughput <= hip.Throughput {
		t.Fatalf("private cloud ordering broken: basic %.1f <= hip %.1f", basic.Throughput, hip.Throughput)
	}
}

func TestDoSAdaptivePuzzlesThrottleAttack(t *testing.T) {
	fixed, err := RunDoS(DoSConfig{Adaptive: false, Duration: 12 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := RunDoS(DoSConfig{Adaptive: true, Duration: 12 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("fixed: hostile=%d legitOK=%d lat=%v cpu=%v", fixed.AttackerBEX, fixed.LegitOK, fixed.LegitLatency, fixed.ResponderBusy)
	t.Logf("adaptive: hostile=%d legitOK=%d lat=%v cpu=%v finalK=%d", adaptive.AttackerBEX, adaptive.LegitOK, adaptive.LegitLatency, adaptive.ResponderBusy, adaptive.FinalK)
	if adaptive.AttackerBEX >= fixed.AttackerBEX {
		t.Fatalf("adaptive puzzles did not reduce hostile BEX rate: %d vs %d", adaptive.AttackerBEX, fixed.AttackerBEX)
	}
	if adaptive.ResponderBusy >= fixed.ResponderBusy {
		t.Fatalf("adaptive puzzles did not relieve responder CPU: %v vs %v", adaptive.ResponderBusy, fixed.ResponderBusy)
	}
	if adaptive.FinalK <= 1 {
		t.Fatalf("difficulty controller never engaged: K=%d", adaptive.FinalK)
	}
	if adaptive.LegitOK == 0 {
		t.Fatal("legitimate client starved out entirely under adaptive puzzles")
	}
}

// TestChaosDeterministicAndHIPRecovers pins the chaos contract: only HIP
// brings the migrated web VM back (the paper's UPDATE-survives-
// locator-change argument), and the seed reaches the schedule. That the
// same seed reproduces the run byte for byte is the same-seed referee's
// check (referee_test.go).
func TestChaosDeterministicAndHIPRecovers(t *testing.T) {
	res1, tbl1 := RunChaos(ChaosConfig{Duration: 10 * time.Second, Clients: 4, Seed: 3})
	for _, r := range res1 {
		t.Logf("%v: ok=%d failed=%d outage=%v recovery=%v", r.Kind, r.Completed, r.Failed, r.WorstOutage, r.WebRecovery)
		if r.Completed == 0 {
			t.Fatalf("%v: no requests completed", r.Kind)
		}
		if r.Kind == secio.HIP {
			if r.WebRecovery <= 0 {
				t.Fatalf("hip: migrated web VM never recovered")
			}
		} else if r.WebRecovery != 0 {
			t.Fatalf("%v: IP-bound backend recovered after migration (recovery=%v)", r.Kind, r.WebRecovery)
		}
	}
	_, tbl3 := RunChaos(ChaosConfig{Duration: 10 * time.Second, Clients: 4, Seed: 4})
	if tbl1.String() == tbl3.String() {
		t.Fatal("different seeds produced identical chaos tables")
	}
}
