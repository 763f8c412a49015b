package tlslite

import (
	"bytes"
	"io"
	mrand "math/rand"
	"sync"
	"testing"

	"hipcloud/internal/keymat"
)

// scriptStream is one side's view of a handshake whose peer is the fuzz
// input: reads replay the input, writes are discarded. pastEnd counts the
// reads issued after the input ran out.
type scriptStream struct {
	in      []byte
	pastEnd int
}

func (s *scriptStream) Read(b []byte) (int, error) {
	if len(s.in) == 0 {
		s.pastEnd++
		return 0, io.EOF
	}
	n := copy(b, s.in)
	s.in = s.in[n:]
	return n, nil
}

func (s *scriptStream) Write(b []byte) (int, error) { return len(b), nil }

// tapStream records what one side of a real handshake writes.
type tapStream struct {
	Stream
	wrote bytes.Buffer
}

func (s *tapStream) Write(b []byte) (int, error) {
	s.wrote.Write(b)
	return s.Stream.Write(b)
}

// recordHandshake runs a real handshake and returns each side's flights.
func recordHandshake(f *testing.F, cliCfg, srvCfg Config) (client, server []byte) {
	ce, se := pipePair()
	ct, st := &tapStream{Stream: ce}, &tapStream{Stream: se}
	var cerr, serr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); _, cerr = Client(ct, cliCfg) }()
	go func() { defer wg.Done(); _, serr = Server(st, srvCfg) }()
	wg.Wait()
	if cerr != nil || serr != nil {
		f.Fatalf("recording handshake: client=%v server=%v", cerr, serr)
	}
	return ct.wrote.Bytes(), st.wrote.Bytes()
}

// damaged returns flight as recorded, truncated by one byte, and with the
// record length, the message length and the first field length maxed.
func damaged(flight []byte) [][]byte {
	out := [][]byte{flight, flight[:len(flight)-1]}
	for _, at := range [][]int{{1, 2}, {4, 5, 6}, {3 + 4 + 32, 3 + 4 + 32 + 1}} {
		d := append([]byte(nil), flight...)
		for _, i := range at {
			d[i] = 0xFF
		}
		out = append(out, d)
	}
	return out
}

// FuzzHandshake feeds Server an arbitrary client side of the handshake
// and Client an arbitrary server side: neither may panic, return a Conn
// together with an error, keep reading once the input has ended, or leave
// a key unwiped — keymat's ledger may grow only by the sessions the
// server stored. Both sides draw their randoms from a fixed-seed source,
// so the recorded resumption flights replay to a successful handshake and
// the fuzzer starts from inside the accepted set, not only from
// rejections.
func FuzzHandshake(f *testing.F) {
	fixedRand := func() io.Reader { return mrand.New(mrand.NewSource(1)) }
	sessions := NewServerSessions()
	cache := NewSessionCache()
	cliCfg := func() Config {
		return Config{Suites: PreferredSuites, Rand: fixedRand(), ServerName: "fuzz", Cache: cache}
	}
	srvCfg := func() Config {
		return Config{Identity: srvID, Suites: PreferredSuites, Rand: fixedRand(), Sessions: sessions}
	}
	legacyC, legacyS := recordHandshake(f, Config{Rand: fixedRand()}, Config{Identity: srvID, Rand: fixedRand()})
	aeadC, aeadS := recordHandshake(f, cliCfg(), srvCfg()) // full; leaves a ticket in cache
	ticket, _ := cache.get("fuzz")
	resumeC, resumeS := recordHandshake(f, cliCfg(), srvCfg()) // abbreviated
	for _, seed := range []struct {
		c, s   []byte
		resume bool
	}{{legacyC, legacyS, false}, {aeadC, aeadS, false}, {resumeC, resumeS, true}} {
		for _, d := range damaged(seed.c) {
			f.Add(d, seed.s, seed.resume)
		}
		for _, d := range damaged(seed.s) {
			f.Add(seed.c, d, seed.resume)
		}
	}
	f.Fuzz(func(t *testing.T, first, reply []byte, resume bool) {
		keys, stored := len(keymat.KeysOutstanding()), sessions.Len()
		check := func(side string, in []byte, run func(Stream) (*Conn, error)) {
			s := &scriptStream{in: in}
			conn, err := run(s)
			if conn != nil && err != nil {
				t.Fatalf("%s returned a Conn together with %v", side, err)
			}
			if s.pastEnd > 1 {
				t.Fatalf("%s read %d times past the end of its input", side, s.pastEnd)
			}
			if conn != nil {
				conn.Close()
			}
		}
		check("Server", first, func(s Stream) (*Conn, error) { return Server(s, srvCfg()) })
		check("Client", reply, func(s Stream) (*Conn, error) {
			cfg := cliCfg()
			cfg.Cache = nil
			if resume { // a fresh cache per run: a refused resumption forgets its entry
				cfg.Cache = NewSessionCache()
				cfg.Cache.put("fuzz", ticket.ticket, ticket.secret, ticket.suite)
				defer cfg.Cache.Forget("fuzz")
			}
			return Client(s, cfg)
		})
		if grew, gained := len(keymat.KeysOutstanding())-keys, sessions.Len()-stored; grew != gained {
			t.Fatalf("%d keys left unwiped, %d sessions stored", grew, gained)
		}
	})
}
