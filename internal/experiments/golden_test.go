package experiments

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"hipcloud/internal/keymat"
	"hipcloud/internal/secio"
	"hipcloud/internal/tlslite"
)

// checkGolden compares got against the committed testdata golden. Running
// the tests with UPDATE_GOLDEN=1 rewrites the files instead (review the
// diff — a golden change means experiment outputs moved).
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s — nondeterminism or a behavior change.\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestChaosGoldenShortSeed1 pins the exact table `benchcloud -run chaos
// -short -seed 1` prints: any nondeterminism across processes or
// unintended behavior change fails the test. The same-seed referee
// (referee_test.go) checks determinism within one process.
func TestChaosGoldenShortSeed1(t *testing.T) {
	_, tbl := RunChaos(ChaosConfig{Duration: 12 * time.Second, Seed: 1})
	checkGolden(t, "chaos_short_seed1.golden", tbl.String())
}

// TestDoSGoldenShortSeed1 pins the table `benchcloud -run dos -short
// -seed 1` prints: the 12 s flood TestDoSAdaptivePuzzlesThrottleAttack
// checks, fixed and adaptive puzzles, from the same run.
func TestDoSGoldenShortSeed1(t *testing.T) {
	_, tbl, err := dosShort()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "dos_short_seed1.golden", tbl.String())
}

// TestRTTGoldenShortSeed1 pins the table `benchcloud -run rtt -short
// -seed 1` prints.
func TestRTTGoldenShortSeed1(t *testing.T) {
	_, tbl := RunResponseTimes(RTConfig{Duration: 8 * time.Second, Seed: 1})
	checkGolden(t, "rtt_short_seed1.golden", tbl.String())
}

// TestFig3GoldenShortSeed1 pins the table `benchcloud -run fig3 -short
// -seed 1` prints (-short does not change fig3).
func TestFig3GoldenShortSeed1(t *testing.T) {
	_, tbl, err := RunFig3(Fig3Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig3_short_seed1.golden", tbl.String())
}

// TestFig3ModernGoldenShortSeed1 pins the same table under -modern, with
// the secured modes on the AEAD HIP_CIPHER set.
func TestFig3ModernGoldenShortSeed1(t *testing.T) {
	_, tbl, err := RunFig3(Fig3Config{Seed: 1, Suites: keymat.PreferredAEAD})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig3_modern_short_seed1.golden", tbl.String())
}

// TestFig2GoldenShortSeed1 pins the short fig2 sweep at seed 1.
func TestFig2GoldenShortSeed1(t *testing.T) {
	_, tbl := RunFig2(Fig2Config{
		Duration: 8 * time.Second, Warmup: time.Second,
		Clients: []int{4, 50}, Seed: 1,
	})
	checkGolden(t, "fig2_short_seed1.golden", tbl.String())
}

// TestFig2GoldenShortAEADSeed1 pins the same sweep with the ssl column
// negotiated onto the modern AEAD record suites: the negotiation and the
// GCM/ChaCha record paths are exactly as deterministic as the legacy
// channel, and the experiment harness needs no other change to run the
// paper's workload on 2026 primitives.
func TestFig2GoldenShortAEADSeed1(t *testing.T) {
	pts, tbl := RunFig2(Fig2Config{
		Duration: 8 * time.Second, Warmup: time.Second,
		Clients: []int{4, 50}, Seed: 1,
		TLSSuites: tlslite.PreferredSuites,
	})
	// Guard against the failure mode where every AEAD handshake errors
	// out and the ssl column silently pins a column of zeros.
	for _, p := range pts {
		if p.Kind == secio.SSL && p.Throughput == 0 {
			t.Fatalf("ssl column dead at %d clients — AEAD handshakes failing", p.Clients)
		}
	}
	checkGolden(t, "fig2_short_aead_seed1.golden", tbl.String())
}
