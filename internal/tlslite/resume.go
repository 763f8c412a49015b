package tlslite

import (
	"crypto/hmac"
	"io"
	"sync"

	"hipcloud/internal/keymat"
)

// Session resumption: the server hands the client an opaque ticket after
// a full handshake; presenting it later skips the signature and
// Diffie-Hellman exchange entirely — fresh randoms are mixed with the
// cached master secret instead (the amortization that makes per-request
// SSL connections affordable, and the reason the paper's HIP-vs-SSL
// comparison is dominated by data-plane costs).

// serverSession is one resumable session: the master secret plus the
// record suite negotiated during the original full handshake (the
// abbreviated exchange carries no suite bytes, so both ends must
// remember it).
type serverSession struct {
	secret []byte
	suite  keymat.Suite
}

// ServerSessions is the server-side resumption store, shared across
// connections of one server.
type ServerSessions struct {
	mu sync.Mutex
	m  map[string]serverSession // ticket -> session
	// Cap bounds stored sessions (FIFO-ish eviction; default 4096).
	Cap int
}

// NewServerSessions creates an empty store.
func NewServerSessions() *ServerSessions {
	return &ServerSessions{m: make(map[string]serverSession), Cap: 4096}
}

func (s *ServerSessions) put(ticket, secret []byte, suite keymat.Suite) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.m) >= s.Cap {
		for k := range s.m { // arbitrary eviction keeps the store bounded
			keymat.Zeroize(s.m[k].secret) // the evicted master secret must not linger
			delete(s.m, k)
			break
		}
	}
	s.m[string(ticket)] = serverSession{secret: keymat.Clone(secret), suite: suite}
}

// get returns a copy of the session for ticket, which the caller must
// wipe: the store wipes its secret slices on eviction, so handing out
// aliases would zero material a caller is still deriving keys from.
func (s *ServerSessions) get(ticket []byte) (serverSession, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.m[string(ticket)]
	if !ok {
		return serverSession{}, false
	}
	return serverSession{secret: keymat.Clone(sess.secret), suite: sess.suite}, true
}

// Len reports stored sessions.
func (s *ServerSessions) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// SessionCache is the client-side resumption store, keyed by server name.
type SessionCache struct {
	mu sync.Mutex
	m  map[string]clientSession
}

type clientSession struct {
	ticket []byte
	secret []byte
	suite  keymat.Suite
}

// NewSessionCache creates an empty client cache.
func NewSessionCache() *SessionCache {
	return &SessionCache{m: make(map[string]clientSession)}
}

func (c *SessionCache) put(server string, ticket, secret []byte, suite keymat.Suite) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.m[server]; ok {
		keymat.Zeroize(old.ticket)
		keymat.Zeroize(old.secret)
	}
	c.m[server] = clientSession{
		ticket: append([]byte(nil), ticket...),
		secret: keymat.Clone(secret),
		suite:  suite,
	}
}

// get returns a copy of the cached session, whose secret the caller must
// wipe: Forget and put wipe the stored slices in place, so an aliased
// return would zero the ticket out from under a caller mid-handshake (the
// fallback path reconstructs the transcript hello from it after Forget).
func (c *SessionCache) get(server string) (clientSession, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.m[server]
	if !ok {
		return clientSession{}, false
	}
	return clientSession{
		ticket: append([]byte(nil), s.ticket...),
		secret: keymat.Clone(s.secret),
		suite:  s.suite,
	}, true
}

// Forget drops the cached session for server (after a failed resumption),
// wiping the stored ticket and master secret before the entry is dropped.
func (c *SessionCache) Forget(server string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.m[server]; ok {
		keymat.Zeroize(s.ticket)
		keymat.Zeroize(s.secret)
	}
	delete(c.m, server)
}

// resumeClient runs the abbreviated handshake. Returns (nil, false, nil)
// when the server declined and the caller must fall back to a full
// handshake on a fresh connection.
func resumeClient(s Stream, cfg Config, sess clientSession, clientRand []byte) (*Conn, bool, error) {
	hello := clientHello(&cfg, clientRand, sess.ticket)
	if err := writeRecord(s, recHandshake, hello); err != nil {
		return nil, false, err
	}
	rec, err := readRecord(s, recHandshake)
	if err != nil {
		return nil, false, err
	}
	typ, body, err := splitMsg(rec)
	if err != nil {
		return nil, false, ErrHandshake
	}
	if typ != msgServerResume {
		// Full ServerHello: the server did not accept the ticket. The
		// caller falls back (this connection continues the full path).
		return nil, false, errFallback{rec: rec, body: body}
	}
	if len(body) != 32 {
		return nil, false, ErrHandshake
	}
	serverRand := body
	// Finished both ways proves both hold the secret.
	verify := transcriptMAC(sess.secret, hello, rec)
	if err := writeRecord(s, recHandshake, msg(msgFinished, verify)); err != nil {
		return nil, false, err
	}
	finRec, err := readRecord(s, recHandshake)
	if err != nil {
		return nil, false, err
	}
	ft, fb, err := splitMsg(finRec)
	if err != nil || ft != msgFinished || !hmac.Equal(fb, transcriptMAC(sess.secret, hello, rec, []byte("server"))) {
		return nil, false, ErrHandshake
	}
	// The resumed connection runs under the suite negotiated during the
	// original full handshake, carried in the cache entry.
	conn, err := establish(s, cfg, sess.secret, clientRand, serverRand, sess.suite, true, nil)
	return conn, true, err
}

// errFallback carries the already-read full ServerHello so the client can
// continue the full handshake without another round trip.
type errFallback struct {
	rec  []byte
	body []byte
}

func (errFallback) Error() string { return "tlslite: resumption declined" }

// issueTicket mints a ticket for the session and stores it with its
// negotiated record suite.
func issueTicket(cfg Config, secret []byte, suite keymat.Suite) []byte {
	if cfg.Sessions == nil {
		return nil
	}
	ticket := make([]byte, 16)
	if _, err := io.ReadFull(cfg.rand(), ticket); err != nil {
		return nil
	}
	cfg.Sessions.put(ticket, secret, suite)
	return ticket
}
