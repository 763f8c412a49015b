package keymat

import (
	"fmt"
	"path"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
)

// KeysOutstanding names where each key buffer this package handed out —
// a Draw, the Kij copy in New, a SharedSecret, a Clone — was created,
// oldest first, for every one that Zeroize has not wiped whole. A run
// that retires everything it keyed brings it back to its starting
// length; a key dropped without a wipe stays listed. Outside test
// binaries it is always empty.
func KeysOutstanding() []string {
	if ledger == nil {
		return nil
	}
	ledger.mu.Lock()
	defer ledger.mu.Unlock()
	live := make([]keyEntry, 0, len(ledger.live))
	for _, e := range ledger.live {
		live = append(live, e)
	}
	sort.Slice(live, func(i, j int) bool { return live[i].seq < live[j].seq })
	out := make([]string, len(live))
	for i, e := range live {
		out[i] = ledger.site(e.pcs)
	}
	return out
}

// ledger is non-nil only in test binaries.
var ledger *keyLedger

// keyLedger holds every registered key buffer by the address of its first
// byte, strongly, so a key its owner dropped unwiped stays visible (and
// keeps its address) instead of being collected.
type keyLedger struct {
	mu    sync.Mutex
	seq   uint64
	live  map[*byte]keyEntry
	sites map[[siteDepth]uintptr]string // formatted creation sites
}

const siteDepth = 4 // Draw → DeriveAssociation → the caller: enough to leave keymat

type keyEntry struct {
	buf []byte
	seq uint64
	pcs [siteDepth]uintptr
}

func init() {
	if testing.Testing() {
		ledger = &keyLedger{live: make(map[*byte]keyEntry), sites: make(map[[siteDepth]uintptr]string)}
	}
}

func (l *keyLedger) add(b []byte) {
	if len(b) == 0 {
		return // nothing to wipe (the NULL suite's encryption key)
	}
	e := keyEntry{buf: b}
	runtime.Callers(2, e.pcs[:])
	l.mu.Lock()
	l.seq++
	e.seq = l.seq
	l.live[&b[0]] = e
	l.mu.Unlock()
}

func (l *keyLedger) wiped(b []byte) {
	if len(b) == 0 {
		return
	}
	l.mu.Lock()
	if e, ok := l.live[&b[0]]; ok && len(b) >= len(e.buf) {
		delete(l.live, &b[0])
	}
	l.mu.Unlock()
}

// site renders the first frame outside this package's own code as
// "pkg.Func (file.go:line)". Callers hold l.mu.
func (l *keyLedger) site(pcs [siteDepth]uintptr) string {
	if s, ok := l.sites[pcs]; ok {
		return s
	}
	s := "unknown"
	frames := runtime.CallersFrames(pcs[:])
	for {
		f, more := frames.Next()
		if !strings.HasPrefix(f.Function, "hipcloud/internal/keymat.") || strings.HasSuffix(f.File, "_test.go") {
			s = fmt.Sprintf("%s (%s:%d)", path.Base(f.Function), path.Base(f.File), f.Line)
			break
		}
		if !more {
			break
		}
	}
	l.sites[pcs] = s
	return s
}
