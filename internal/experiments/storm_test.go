package experiments

import (
	"testing"
	"time"
)

// stormShortCfg mirrors `benchcloud -run storm -short -seed 1`.
var stormShortCfg = StormConfig{
	Duration: 12 * time.Second, Servers: 4, Clients: 48, Seed: 1,
}

// TestStormGoldenShortSeed1 pins the exact table `benchcloud -run storm
// -short -seed 1` prints (cross-process determinism via the committed
// golden; the same-seed referee checks it within one process).
func TestStormGoldenShortSeed1(t *testing.T) {
	_, tbl := RunStorm(stormShortCfg)
	checkGolden(t, "storm_short_seed1.golden", tbl.String())
}

// TestStormShapeShortSeed1 checks the properties the experiment exists to
// demonstrate, independent of exact numbers: every tier re-contacts after
// the evacuation, HIP's re-contact tail stays bounded, retransmit
// amplification stays bounded, and nobody collapses outright.
func TestStormShapeShortSeed1(t *testing.T) {
	results, _ := RunStorm(stormShortCfg)
	if len(results) != 3 {
		t.Fatalf("expected 3 scenarios, got %d", len(results))
	}
	for _, r := range results {
		if r.ContactsOK < stormShortCfg.Clients {
			t.Errorf("%v: only %d successful contacts for %d clients — herd never formed",
				r.Kind, r.ContactsOK, stormShortCfg.Clients)
		}
		if !r.Dipped {
			t.Errorf("%v: evacuation did not dip connectivity — schedule not biting", r.Kind)
		}
		if r.Recovery <= 0 {
			t.Errorf("%v: herd never recovered to 95%% connected after the evacuation", r.Kind)
		}
		if r.Recontacts == 0 {
			t.Errorf("%v: no client completed an outage->reconnect cycle", r.Kind)
		}
		if r.RecontactP99 <= 0 || r.RecontactP99 > stormShortCfg.Duration/2 {
			t.Errorf("%v: re-contact p99 %v outside (0, D/2] — tail not bounded",
				r.Kind, r.RecontactP99)
		}
	}
	// HIP-specific: mobility (UPDATE) should carry part of the herd through
	// the migration without a visible outage, so HIP must see strictly
	// fewer disrupted clients than the DNS-bound tiers.
	var hip, basic StormResult
	for _, r := range results {
		switch r.Kind.String() {
		case "hip":
			hip = r
		case "basic":
			basic = r
		}
	}
	if hip.Recontacts >= basic.Recontacts {
		t.Errorf("hip disrupted %d clients vs basic %d — UPDATE storm not masking the migration",
			hip.Recontacts, basic.Recontacts)
	}
	// The jittered, capped backoff must keep retransmit amplification
	// bounded: well under one retransmission per client on average even
	// through the loss window.
	if hip.Retransmits > uint64(stormShortCfg.Clients)*4 {
		t.Errorf("hip retransmits %d exceed 4x client count — backoff not damping the herd",
			hip.Retransmits)
	}
}

// TestStormSeedsDiffer guards the seed plumbing: two seeds must not
// produce byte-identical tables (if they do, the seed is being ignored
// and the "deterministic per seed" claim is vacuous).
func TestStormSeedsDiffer(t *testing.T) {
	cfg2 := stormShortCfg
	cfg2.Seed = 2
	_, tbl1 := RunStorm(stormShortCfg)
	_, tbl2 := RunStorm(cfg2)
	if tbl1.String() == tbl2.String() {
		t.Fatal("seed 1 and seed 2 produced identical storm tables — seed not plumbed through")
	}
}
