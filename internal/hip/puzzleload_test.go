package hip

import (
	"net/netip"
	"testing"
	"time"

	"hipcloud/internal/hipwire"
	"hipcloud/internal/puzzle"
)

// freshHIT returns the n-th of a run of distinct HIT-shaped addresses: an
// I1's sender HIT is taken at its word, so none needs a key behind it.
func freshHIT(n int) netip.Addr {
	b := [16]byte{0x20, 0x01, 0x00, 0x2f}
	b[12], b[13], b[14], b[15] = byte(n>>24), byte(n>>16), byte(n>>8), byte(n)
	return netip.AddrFrom16(b)
}

// r1K hands b an I1 from hit at now and returns the K of the R1 it answers.
func r1K(t testing.TB, b *Host, hit netip.Addr, now time.Duration) uint8 {
	t.Helper()
	i1 := &hipwire.Packet{Type: hipwire.I1, SenderHIT: hit, ReceiverHIT: b.HIT()}
	b.OnPacket(i1.Marshal(), locA, now)
	out := b.Outgoing()
	if len(out) != 1 {
		t.Fatalf("I1 from %v at %v: %d answers, want one R1", hit, now, len(out))
	}
	pkt, err := hipwire.Parse(out[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := pkt.Get(hipwire.ParamPuzzle)
	if !ok {
		t.Fatal("R1 carries no puzzle")
	}
	pz, err := hipwire.ParsePuzzle(p.Data)
	if err != nil {
		t.Fatal(err)
	}
	return pz.K
}

// TestFreshInitiatorsGetBaseK: 200 initiators that each connect once,
// within 100 ms, are popularity, not pressure. Every R1 carries the base
// difficulty.
func TestFreshInitiatorsGetBaseK(t *testing.T) {
	b := newHost(t, idB, locB)
	base := puzzle.DefaultDifficulty.BaseK
	for i := range 200 {
		now := time.Duration(i) * 500 * time.Microsecond
		if k := r1K(t, b, freshHIT(i), now); k != base {
			t.Fatalf("fresh initiator %d at %v got K=%d, want the base %d", i, now, k, base)
		}
	}
}

// TestRepeatInitiatorPaysAlone: one HIT that sends 20 I1s a second gets
// harder puzzles, while another HIT that connects once a second, between
// them, keeps the base difficulty.
func TestRepeatInitiatorPaysAlone(t *testing.T) {
	b := newHost(t, idB, locB)
	base := puzzle.DefaultDifficulty.BaseK
	hot, calm := freshHIT(1), freshHIT(2)
	var hotK uint8
	for i := range 60 {
		now := time.Duration(i) * 50 * time.Millisecond
		hotK = r1K(t, b, hot, now)
		if i%20 == 10 {
			if k := r1K(t, b, calm, now+25*time.Millisecond); k != base {
				t.Fatalf("the once-a-second initiator got K=%d at %v, want the base %d", k, now, base)
			}
		}
	}
	if hotK <= base {
		t.Fatalf("an initiator sending 20 I1s a second still gets K=%d", hotK)
	}
}

// TestFreshHITChurnKeepsHotInitiator: 10,000 fresh HITs arriving after a
// hot one cannot push it out of the bounded table. They evict one another,
// so each gets the base difficulty, and the hot HIT's next R1 is still
// hard.
func TestFreshHITChurnKeepsHotInitiator(t *testing.T) {
	b := newHost(t, idB, locB)
	base := puzzle.DefaultDifficulty.BaseK
	hot := freshHIT(0)
	var now time.Duration
	for range 20 {
		r1K(t, b, hot, now)
		now += 50 * time.Millisecond
	}
	for i := range 10_000 {
		if k := r1K(t, b, freshHIT(1+i), now); k != base {
			t.Fatalf("fresh initiator %d got K=%d, want the base %d", i, k, base)
		}
		now += 20 * time.Microsecond
	}
	if k := r1K(t, b, hot, now); k <= base {
		t.Fatalf("after a churn of fresh HITs the hot initiator gets K=%d: it was evicted", k)
	}
}

// TestI1Allocs pins what answering an I1 allocates, with the initiator
// table full and every I1 from a HIT it does not hold: parsing the I1 and
// building the R1 allocate, the per-initiator table does not.
func TestI1Allocs(t *testing.T) {
	b, err := NewHost(Config{Identity: idB, Locator: locB,
		Puzzle: puzzle.Difficulty{BaseK: 1, MaxK: 1, LowWater: 2, HighWater: 8}})
	if err != nil {
		t.Fatal(err)
	}
	i1s := make([][]byte, 4*initiatorSlots)
	for i := range i1s {
		i1s[i] = (&hipwire.Packet{Type: hipwire.I1, SenderHIT: freshHIT(i), ReceiverHIT: b.HIT()}).Marshal()
	}
	n := 0
	handle := func() {
		b.OnPacket(i1s[n%len(i1s)], locA, time.Duration(n)*time.Millisecond)
		b.Outgoing()
		n++
	}
	for range len(i1s) {
		handle() // fill the table and build the R1 template
	}
	// 17 is the count with the host-wide I1 counter this table replaced.
	const want = 17
	if got := testing.AllocsPerRun(200, handle); got > want {
		t.Fatalf("an I1 allocates %.0f times, want at most %d", got, want)
	}
}
