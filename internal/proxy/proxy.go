// Package proxy implements the paper's end-to-middle termination point: a
// reverse HTTP proxy / load balancer (HAProxy in the original testbed)
// that accepts plain HTTP from consumers and forwards requests to backend
// web servers over the secured transport (basic, HIP or SSL). Round-robin
// is the paper's configuration; least-connections is provided for the
// ablation benchmarks.
package proxy

import (
	"bufio"
	"errors"
	"net/netip"
	"time"

	"hipcloud/internal/metrics"
	"hipcloud/internal/microhttp"
	"hipcloud/internal/netsim"
	"hipcloud/internal/secio"
)

// FrontPort is the port consumers connect to.
const FrontPort uint16 = 8080

// Policy selects the balancing algorithm.
type Policy int

// Balancing policies.
const (
	RoundRobin Policy = iota
	LeastConn
)

func (p Policy) String() string {
	if p == LeastConn {
		return "leastconn"
	}
	return "roundrobin"
}

// ErrNoBackend is returned when no healthy backend exists.
var ErrNoBackend = errors.New("proxy: no healthy backend")

// Backend is one upstream web server.
type Backend struct {
	Name string
	// Addr is the backend identifier on the backend transport: an IP for
	// basic/SSL, a HIT or LSI for HIP.
	Addr netip.Addr
	Port uint16

	healthy bool
	active  int // in-flight requests (least-conn)
	Served  uint64
	pool    *secio.Pool
}

// maxBackendConns bounds the persistent connections per backend.
const maxBackendConns = 32

// Healthy reports the backend's health-check status.
func (b *Backend) Healthy() bool { return b.healthy }

// Proxy is the load balancer.
type Proxy struct {
	Name string
	// Front accepts consumer connections (plain in the paper).
	Front *secio.Transport
	// Back dials backends (basic/HIP/SSL — the measured variable).
	Back     *secio.Transport
	Policy   Policy
	Backends []*Backend
	// PerRequestCPU models HAProxy's per-request processing.
	PerRequestCPU time.Duration
	// HealthInterval enables periodic backend health checks when > 0.
	HealthInterval time.Duration

	rrNext int
	// Stats.
	Served, Errors uint64
	Latency        metrics.Histogram
}

// AddBackend registers an upstream.
func (x *Proxy) AddBackend(name string, addr netip.Addr, port uint16) *Backend {
	b := &Backend{
		Name: name, Addr: addr, Port: port, healthy: true,
		pool: secio.NewPool(x.Back, addr, port, maxBackendConns),
	}
	x.Backends = append(x.Backends, b)
	return b
}

// pick chooses a healthy backend per policy.
func (x *Proxy) pick() (*Backend, error) {
	healthy := make([]*Backend, 0, 8) // on the stack for up to 8 backends
	for _, b := range x.Backends {
		if b.healthy {
			healthy = append(healthy, b)
		}
	}
	if len(healthy) == 0 {
		if len(x.Backends) == 0 {
			return nil, ErrNoBackend
		}
		// Every backend is marked down. Failing fast forever would leave
		// the proxy dead even after backends recover when no health loop
		// is running, so route to one anyway: a success flips it healthy
		// again (passive recovery), a failure costs one more 502.
		healthy = x.Backends
	}
	switch x.Policy {
	case LeastConn:
		best := healthy[0]
		for _, b := range healthy[1:] {
			if b.active < best.active {
				best = b
			}
		}
		return best, nil
	default:
		b := healthy[x.rrNext%len(healthy)]
		x.rrNext++
		return b, nil
	}
}

// Run accepts consumer connections and proxies them. Call from Spawn.
func (x *Proxy) Run(p *netsim.Proc) {
	l := x.Front.MustListen(FrontPort)
	if x.HealthInterval > 0 {
		p.Spawn(x.Name+"/health", x.healthLoop)
	}
	for {
		raw, err := l.AcceptRaw(p, 0)
		if err != nil {
			return
		}
		conn := raw
		p.Spawn(x.Name+"/conn", func(hp *netsim.Proc) {
			c, err := x.Front.ServerConn(hp, conn)
			if err != nil {
				return
			}
			defer c.Close()
			br := bufio.NewReader(c)
			node := x.Front.Stack.Node()
			var ex exchange
			for {
				if err := microhttp.ReadRequestInto(br, &ex.req); err != nil {
					return
				}
				start := hp.Now()
				node.CPU().Use(hp, x.PerRequestCPU)
				resp := x.forward(hp, &ex)
				if resp.Status >= 500 {
					x.Errors++
				}
				if err := microhttp.WriteResponse(c, resp); err != nil {
					return
				}
				x.Served++
				x.Latency.Add(hp.Now() - start)
				if ex.req.WantsClose() {
					return
				}
			}
		})
	}
}

// exchange is one client connection's messages, reused across its
// requests: the request read from the client, its forwarded copy and the
// backend's response. Each is valid until the connection's next request.
type exchange struct {
	req, fwd microhttp.Request
	resp     microhttp.Response
}

// forward relays one request to a backend. A connection-level failure
// marks the backend unhealthy immediately (instead of waiting for the
// next periodic probe) and fails the request over to another backend:
// always when the request never reached the old one, and for idempotent
// GETs even when it might have (RFC 7231 §4.2.2 — a replayed GET is
// safe; anything else surfaces the 502 to the client).
func (x *Proxy) forward(p *netsim.Proc, ex *exchange) *microhttp.Response {
	var lastErr error
	for try := 0; try <= len(x.Backends); try++ {
		b, err := x.pick()
		if err != nil {
			return &microhttp.Response{Status: 503, Body: []byte(err.Error())}
		}
		sent, err := x.forwardTo(p, b, ex)
		if err == nil {
			return &ex.resp
		}
		lastErr = err
		b.healthy = false
		if sent && ex.req.Method != "GET" {
			break
		}
	}
	return &microhttp.Response{Status: 502, Body: []byte(lastErr.Error())}
}

// forwardTo relays ex.req to one backend and reads its answer into
// ex.resp. sent reports whether the request may have reached the backend
// when err != nil (it governs replay safety).
func (x *Proxy) forwardTo(p *netsim.Proc, b *Backend, ex *exchange) (sent bool, err error) {
	b.active++
	defer func() { b.active-- }()
	bc, err := b.pool.Acquire(p)
	if err != nil {
		return false, err
	}
	fwd := &ex.fwd
	fwd.Method, fwd.Path, fwd.Body = ex.req.Method, ex.req.Path, ex.req.Body
	if fwd.Headers == nil {
		fwd.Headers = make(map[string]string, len(ex.req.Headers)+1)
	}
	clear(fwd.Headers)
	fwd.Headers["X-Forwarded-By"] = x.Name
	for k, v := range ex.req.Headers {
		fwd.Headers[k] = v
	}
	if err = microhttp.WriteRequest(bc, fwd); err == nil {
		err = microhttp.ReadResponseInto(bc.R, &ex.resp)
	}
	b.pool.Release(bc, err != nil || ex.resp.WantsClose())
	if err != nil {
		return true, err
	}
	b.Served++
	b.healthy = true
	return true, nil
}

// healthLoop probes each backend with a cheap request.
func (x *Proxy) healthLoop(p *netsim.Proc) {
	for {
		p.Sleep(x.HealthInterval)
		for _, b := range x.Backends {
			bc, err := b.pool.Acquire(p)
			if err != nil {
				b.healthy = false
				continue
			}
			resp, err := microhttp.RoundTrip(bc, bc.R, &microhttp.Request{Method: "GET", Path: "/home"})
			ok := err == nil && resp.Status == 200
			b.pool.Release(bc, err != nil)
			b.healthy = ok
		}
	}
}
