package netsim

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestBufPoolClassSelection(t *testing.T) {
	for _, tc := range []struct{ n, wantCap int }{
		{0, classSmall}, {1, classSmall}, {classSmall, classSmall},
		{classSmall + 1, classMTU}, {1400, classMTU}, {classMTU, classMTU},
		{classSeg, classSeg}, {classMax, classMax},
	} {
		b := GetBuf(tc.n)
		if len(b) != tc.n {
			t.Fatalf("GetBuf(%d) len = %d", tc.n, len(b))
		}
		if cap(b) < tc.wantCap {
			t.Fatalf("GetBuf(%d) cap = %d, want >= %d", tc.n, cap(b), tc.wantCap)
		}
		PutBuf(b)
	}
	// Oversized requests fall through to plain allocation.
	big := GetBuf(classMax + 1)
	if len(big) != classMax+1 {
		t.Fatalf("oversized GetBuf len = %d", len(big))
	}
	PutBuf(big) // must not panic; joins classMax outside test binaries
}

// TestPutBufPoisonsStaleAlias: a view kept past PutBuf reads the
// ledger's 0xA5 poison, across the whole capacity, not the old bytes.
func TestPutBufPoisonsStaleAlias(t *testing.T) {
	b := GetBuf(1400)
	stale := b[:cap(b)]
	for i := range stale {
		stale[i] = 0x11
	}
	PutBuf(b)
	for i, v := range stale {
		if v != 0xA5 {
			t.Fatalf("stale alias byte %d = %#x after PutBuf, want the 0xA5 poison", i, v)
		}
	}
}

func TestBufPoolSubsliceRejoinsSmallerClass(t *testing.T) {
	b := GetBuf(classSeg) // 16 KiB class
	sub := b[:100:classMTU]
	PutBuf(sub) // cap 2048 → MTU class, not Seg
	got := GetBuf(classMTU)
	if cap(got) < classMTU {
		t.Fatalf("cap = %d", cap(got))
	}
	PutBuf(got)
}

func TestBufPoolZeroAllocSteadyState(t *testing.T) {
	for i := 0; i < 8; i++ {
		PutBuf(GetBuf(1400))
	}
	allocs := testing.AllocsPerRun(200, func() {
		PutBuf(GetBuf(1400))
	})
	// Strictly zero in steady state; tolerate a stray GC clearing the
	// pool mid-measurement.
	if allocs >= 1 {
		t.Errorf("GetBuf/PutBuf allocates %v/op, want 0", allocs)
	}
}

func TestPutBufTwicePanics(t *testing.T) {
	b := GetBuf(1400)
	PutBuf(b)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "PutBuf") {
			t.Fatalf("second PutBuf recovered %v, want a panic naming PutBuf", r)
		}
	}()
	PutBuf(b[:10]) // same slab, shorter view
}

// TestPutBufForeignAndOffsetAreNotReturns: neither a buffer the pool never
// made nor an offset sub-slice of one it did panics, and neither counts as
// a return, so the slab b stays outstanding.
func TestPutBufForeignAndOffsetAreNotReturns(t *testing.T) {
	start := PoolOutstanding()
	b := GetBuf(classSeg)
	PutBuf(make([]byte, classMTU))
	PutBuf(b[8:])
	if n := PoolOutstanding() - start; n != 1 {
		t.Fatalf("PoolOutstanding moved by %d, want 1: b was handed out and never returned whole", n)
	}
}

// TestForeignPutIsNeverHandedOutUncounted: a buffer the pool did not make
// stays out of it after PutBuf, so every buffer a later GetBuf hands out
// is counted.
func TestForeignPutIsNeverHandedOutUncounted(t *testing.T) {
	const n = 8
	for range n {
		PutBuf(make([]byte, classMTU))
	}
	start := PoolOutstanding()
	var got [n][]byte
	for i := range got {
		got[i] = GetBuf(classMTU)
	}
	if d := PoolOutstanding() - start; d != n {
		t.Errorf("PoolOutstanding moved by %d across %d GetBufs after foreign puts, want %d", d, n, n)
	}
	for _, b := range got {
		PutBuf(b)
	}
	if d := PoolOutstanding() - start; d != 0 {
		t.Errorf("PoolOutstanding moved by %d once every buffer was put back", d)
	}
}

// TestPoolLedgerConcurrentUse drives the ledger from several goroutines
// while the GC runs slab finalizers, which reach it from another; under
// -race it checks the ledger's locking.
func TestPoolLedgerConcurrentUse(t *testing.T) {
	start := PoolOutstanding()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				PutBuf(GetBuf(100 + i))
				if i%250 == 0 {
					runtime.GC()
				}
			}
		}()
	}
	wg.Wait()
	if n := PoolOutstanding() - start; n != 0 {
		t.Fatalf("PoolOutstanding moved by %d across balanced Get/Put pairs", n)
	}
}

func BenchmarkBufPoolGetPut1400(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PutBuf(GetBuf(1400))
	}
}
