// Package secio selects the security scenario of the paper's evaluation:
// it exposes one Dial/Listen/Accept interface over the three transports
// compared in Figure 2 —
//
//	Basic: plain streams (no protection),
//	HIP:   streams inside BEET-mode ESP via the HIP fabric,
//	SSL:   plain streams wrapped in the tlslite channel,
//
// so the RUBiS service, the reverse proxy and the workload generators are
// written once and measured three times.
package secio

import (
	"bufio"
	"errors"
	"io"
	"net/netip"
	"time"

	"hipcloud/internal/identity"
	"hipcloud/internal/keymat"
	"hipcloud/internal/netsim"
	"hipcloud/internal/simtcp"
	"hipcloud/internal/tlslite"
)

// Kind selects the security scenario.
type Kind int

// Scenarios, in the paper's terminology.
const (
	Basic Kind = iota
	HIP
	SSL
)

func (k Kind) String() string {
	switch k {
	case Basic:
		return "basic"
	case HIP:
		return "hip"
	case SSL:
		return "ssl"
	}
	return "kind(?)"
}

// ErrNeedIdentity is returned when SSL listeners lack a server identity.
var ErrNeedIdentity = errors.New("secio: SSL transport requires an identity")

// Transport binds a scenario to a node's stream stack.
type Transport struct {
	Kind  Kind
	Stack *simtcp.Stack
	// Identity is the tlslite server credential (SSL only).
	Identity *identity.HostIdentity
	// Costs is the tlslite cost model (SSL only).
	Costs tlslite.Costs
	// TLSCache enables client-side SSL session resumption (SSL only).
	TLSCache *tlslite.SessionCache
	// TLSSessions enables server-side SSL session resumption (SSL only).
	TLSSessions *tlslite.ServerSessions
	// TLSServerName keys the client session cache (SSL only).
	TLSServerName string
	// TLSSuites selects the tlslite record suites (SSL only). Nil keeps
	// the legacy AES-CTR channel and a byte-identical wire, so existing
	// goldens are untouched; a non-nil list turns on transcript-bound
	// suite negotiation (e.g. tlslite.PreferredSuites for the modern
	// single-pass AEAD record layer).
	TLSSuites []keymat.Suite
	// Rand supplies handshake randomness (SSL only; nil = crypto/rand).
	// Simulation drivers must pass the sim's seeded RNG: ECDSA signatures
	// over the hello randoms vary in DER length with their content, so
	// real entropy leaks into virtual transmission timing otherwise.
	Rand io.Reader
	// DialTimeout bounds connection establishment (default 10s).
	DialTimeout time.Duration
}

func (t *Transport) dialTimeout() time.Duration {
	if t.DialTimeout > 0 {
		return t.DialTimeout
	}
	return 10 * time.Second
}

// Conn is a byte stream bound to a process. Rebind transfers it to
// another process for connection pooling.
type Conn interface {
	io.ReadWriteCloser
	Rebind(p *netsim.Proc)
	// Abort resets the connection immediately, waking any process blocked
	// on it with an error. Close is graceful (FIN after the send buffer
	// drains) and does NOT unblock a stalled reader — watchdogs and
	// timeout paths must use Abort.
	Abort()
}

// charger bills tlslite CPU costs to the node's processor on behalf of
// whichever process the connection is currently bound to.
func (t *Transport) charger(b *simtcp.BoundConn) func(time.Duration) {
	node := t.Stack.Node()
	return func(d time.Duration) { node.CPU().Use(b.Proc(), d) }
}

// Dial connects to peer:port under the scenario. For HIP, peer is a HIT
// or an LSI; otherwise an IP address.
func (t *Transport) Dial(p *netsim.Proc, peer netip.Addr, port uint16) (Conn, error) {
	c, err := t.Stack.Dial(p, peer, port, t.dialTimeout())
	if err != nil {
		return nil, err
	}
	bound := c.Bind(p)
	if t.Kind != SSL {
		return bound, nil
	}
	tc, err := tlslite.Client(bound, tlslite.Config{
		Costs:      t.Costs,
		Charge:     t.charger(bound),
		Cache:      t.TLSCache,
		ServerName: t.TLSServerName,
		Rand:       t.Rand,
		Suites:     t.TLSSuites,
	})
	if err != nil {
		c.Abort()
		return nil, err
	}
	return &tlsConn{Conn: tc, raw: c, bound: bound}, nil
}

// Listener accepts scenario connections.
type Listener struct {
	t *Transport
	l *simtcp.Listener
}

// Listen binds a listener on port.
func (t *Transport) Listen(port uint16) (*Listener, error) {
	if t.Kind == SSL && t.Identity == nil {
		return nil, ErrNeedIdentity
	}
	l, err := t.Stack.Listen(port)
	if err != nil {
		return nil, err
	}
	return &Listener{t: t, l: l}, nil
}

// MustListen is Listen that panics on error.
func (t *Transport) MustListen(port uint16) *Listener {
	l, err := t.Listen(port)
	if err != nil {
		panic(err)
	}
	return l
}

// AcceptRaw waits for a connection without performing the security
// handshake; servers pass the raw connection to a handler process which
// calls Transport.ServerConn, so handshakes don't serialize the accept
// loop.
func (l *Listener) AcceptRaw(p *netsim.Proc, timeout time.Duration) (*simtcp.Conn, error) {
	return l.l.Accept(p, timeout)
}

// Accept waits for a connection and completes any security handshake
// inline (convenience for single-connection servers and tests).
func (l *Listener) Accept(p *netsim.Proc, timeout time.Duration) (Conn, error) {
	c, err := l.l.Accept(p, timeout)
	if err != nil {
		return nil, err
	}
	return l.t.ServerConn(p, c)
}

// ServerConn upgrades a raw accepted connection for the scenario,
// performing the server-side handshake in the calling process.
func (t *Transport) ServerConn(p *netsim.Proc, c *simtcp.Conn) (Conn, error) {
	bound := c.Bind(p)
	if t.Kind != SSL {
		return bound, nil
	}
	tc, err := tlslite.Server(bound, tlslite.Config{
		Identity: t.Identity,
		Costs:    t.Costs,
		Charge:   t.charger(bound),
		Sessions: t.TLSSessions,
		Rand:     t.Rand,
		Suites:   t.TLSSuites,
	})
	if err != nil {
		c.Abort()
		return nil, err
	}
	return &tlsConn{Conn: tc, raw: c, bound: bound}, nil
}

// Close stops the listener.
func (l *Listener) Close() { l.l.Close() }

// tlsConn closes both the channel and the carrier stream.
type tlsConn struct {
	*tlslite.Conn
	raw   *simtcp.Conn
	bound *simtcp.BoundConn
}

func (c *tlsConn) Close() error {
	err := c.Conn.Close()
	c.raw.Close()
	return err
}

// Rebind transfers the carrier stream to another process.
func (c *tlsConn) Rebind(p *netsim.Proc) { c.bound.Rebind(p) }

// Abort resets the carrier stream immediately.
func (c *tlsConn) Abort() { c.raw.Abort() }

// PoolConn is one pooled connection with its persistent read buffer.
type PoolConn struct {
	Conn
	R *bufio.Reader
}

// Pool is a bounded pool of persistent connections from one node to one
// peer port, dialed lazily and shared by the node's processes.
type Pool struct {
	t     *Transport
	addr  netip.Addr
	port  uint16
	size  int
	open  int // connections dialed and not yet dropped
	free  []*PoolConn
	waitQ *netsim.WaitQueue
}

// NewPool creates a pool of at most size connections toward addr:port (an
// IP, HIT or LSI depending on the transport).
func NewPool(t *Transport, addr netip.Addr, port uint16, size int) *Pool {
	return &Pool{t: t, addr: addr, port: port, size: size,
		waitQ: netsim.NewWaitQueue(t.Stack.Node().Net().Sim())}
}

// Acquire borrows a connection for p: the most recently released one,
// else a fresh dial while under size, else it waits for a Release.
func (pl *Pool) Acquire(p *netsim.Proc) (*PoolConn, error) {
	for {
		if n := len(pl.free); n > 0 {
			pc := pl.free[n-1]
			pl.free = pl.free[:n-1]
			pc.Rebind(p)
			return pc, nil
		}
		if pl.open < pl.size {
			c, err := pl.t.Dial(p, pl.addr, pl.port)
			if err != nil {
				return nil, err
			}
			pl.open++
			return &PoolConn{Conn: c, R: bufio.NewReader(c)}, nil
		}
		pl.waitQ.Wait(p, 0)
	}
}

// Release returns a borrowed connection. A broken one — a failed write or
// read, or a peer that asked to close — is closed and forgotten, so the
// next Acquire dials afresh instead of inheriting the failure.
func (pl *Pool) Release(pc *PoolConn, broken bool) {
	if broken {
		pc.Close()
		pl.open--
	} else {
		pl.free = append(pl.free, pc)
	}
	pl.waitQ.WakeOne()
}
