package puzzle

import (
	"net/netip"
	"testing"
	"testing/quick"
)

var (
	hitI = netip.MustParseAddr("2001:10::1")
	hitR = netip.MustParseAddr("2001:10::2")
)

func TestSolveVerify(t *testing.T) {
	for _, k := range []uint8{0, 1, 4, 8, 12} {
		j, attempts, err := Solve(0x1234, k, hitI, hitR, 1)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !Verify(0x1234, k, hitI, hitR, j) {
			t.Fatalf("k=%d: solution %d does not verify", k, j)
		}
		if k >= 8 && attempts < 2 {
			t.Logf("k=%d solved on first try (lucky seed)", k)
		}
	}
}

func TestVerifyRejectsWrongInputs(t *testing.T) {
	const k = 10
	j, _, err := Solve(42, k, hitI, hitR, 7)
	if err != nil {
		t.Fatal(err)
	}
	if Verify(43, k, hitI, hitR, j) {
		t.Error("verified under wrong I")
	}
	if Verify(42, k, hitR, hitI, j) {
		t.Error("verified under swapped HITs")
	}
	if Verify(42, k, hitI, hitR, j+1) && Verify(42, k, hitI, hitR, j+2) {
		t.Error("neighbouring Js both verify; puzzle looks degenerate")
	}
}

func TestSolveRejectsTooHard(t *testing.T) {
	if _, _, err := Solve(1, MaxK+1, hitI, hitR, 0); err != ErrTooHard {
		t.Fatalf("err = %v, want ErrTooHard", err)
	}
}

func TestZeroKAlwaysVerifies(t *testing.T) {
	if !Verify(9, 0, hitI, hitR, 12345) {
		t.Fatal("K=0 must accept any J")
	}
}

func TestAttemptsGrowWithK(t *testing.T) {
	// Average attempts over seeds should grow roughly 2^K.
	mean := func(k uint8) float64 {
		var total uint64
		const n = 24
		for seed := uint64(0); seed < n; seed++ {
			_, att, err := Solve(uint64(seed*977+3), k, hitI, hitR, seed*1_000_003)
			if err != nil {
				t.Fatal(err)
			}
			total += att
		}
		return float64(total) / n
	}
	m4, m10 := mean(4), mean(10)
	if m10 < m4*8 {
		t.Fatalf("mean attempts k=4: %.1f, k=10: %.1f; expected ≥8x growth", m4, m10)
	}
}

func TestDifficultyController(t *testing.T) {
	d := Difficulty{BaseK: 2, MaxK: 16, LowWater: 10, HighWater: 110}
	if got := d.K(0); got != 2 {
		t.Fatalf("idle K = %d", got)
	}
	if got := d.K(10); got != 2 {
		t.Fatalf("low-water K = %d", got)
	}
	if got := d.K(1000); got != 16 {
		t.Fatalf("overload K = %d", got)
	}
	mid := d.K(60)
	if mid <= 2 || mid >= 16 {
		t.Fatalf("mid-load K = %d, want interpolated", mid)
	}
	// Monotone non-decreasing in load.
	prev := uint8(0)
	for load := 0; load <= 200; load += 5 {
		k := d.K(load)
		if k < prev {
			t.Fatalf("K decreased from %d to %d at load %d", prev, k, load)
		}
		prev = k
	}
}

func TestDifficultyDegenerateConfig(t *testing.T) {
	d := Difficulty{BaseK: 3, MaxK: 10, LowWater: 50, HighWater: 50}
	if got := d.K(1000); got != 3 {
		t.Fatalf("degenerate config K = %d, want BaseK", got)
	}
}

// Property: every solved puzzle verifies, for arbitrary I and seeds.
func TestSolveVerifyProperty(t *testing.T) {
	f := func(i, seed uint64, kRaw uint8) bool {
		k := kRaw % 12
		j, _, err := Solve(i, k, hitI, hitR, seed)
		if err != nil {
			return false
		}
		return Verify(i, k, hitI, hitR, j)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkVerify(b *testing.B) {
	j, _, _ := Solve(1, 10, hitI, hitR, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !Verify(1, 10, hitI, hitR, j) {
			b.Fatal("verify failed")
		}
	}
}

// Solve's J and attempt count are what the simulator charges a solver
// for, so they are pinned: the goldens depend on them, whatever way the
// search is computed.
func TestSolvePinned(t *testing.T) {
	hits := [][2]netip.Addr{
		{hitI, hitR},
		{netip.MustParseAddr("2001:2f:ab12::77"), netip.MustParseAddr("2001:2e:9::5")},
	}
	for _, c := range []struct {
		i        uint64
		k        uint8
		hits     int
		seed, j  uint64
		attempts uint64
	}{
		{0x1234, 0, 0, 0x1, 0x1, 1},
		{0x1234, 1, 0, 0x1, 0x1, 1},
		{0x1234, 4, 0, 0x1, 0xb, 11},
		{0x1234, 8, 0, 0x1, 0x30, 48},
		{0xdeadbeefcafef00d, 10, 1, 0x63, 0x348, 742},
		{0x2a, 12, 0, 0x7, 0xd21, 3355},
		{0x8000000000000000, 16, 1, 0xfffffffffffffffb, 0x7924, 31018}, // J wraps past 2^64
		{0x7, 3, 1, 0x0, 0x1f, 32},
	} {
		h := hits[c.hits]
		j, attempts, err := Solve(c.i, c.k, h[0], h[1], c.seed)
		if err != nil || j != c.j || attempts != c.attempts {
			t.Errorf("Solve(%#x, %d, %v, %v, %#x) = %#x, %d, %v; want %#x, %d",
				c.i, c.k, h[0], h[1], c.seed, j, attempts, err, c.j, c.attempts)
		}
	}
}

// BenchmarkSolve solves K=8 puzzles and reports the cost per attempt,
// which is what a solver's ~2^K search multiplies.
func BenchmarkSolve(b *testing.B) {
	var attempts uint64
	for n := 0; n < b.N; n++ {
		_, att, err := Solve(uint64(n), 8, hitI, hitR, uint64(n)*7919)
		if err != nil {
			b.Fatal(err)
		}
		attempts += att
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(attempts), "ns/attempt")
}
