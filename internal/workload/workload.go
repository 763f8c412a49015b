// Package workload reproduces the paper's measurement tools inside the
// simulator: jmeter-style closed-loop concurrent HTTP clients, an
// httperf-style open-loop fixed-rate generator, an iperf-style bulk TCP
// transfer, and ping series — each reporting the statistics the paper's
// figures are built from.
package workload

import (
	"bufio"
	"net/netip"
	"time"

	"hipcloud/internal/metrics"
	"hipcloud/internal/microhttp"
	"hipcloud/internal/netsim"
	"hipcloud/internal/secio"
)

// Result aggregates one run's measurements.
type Result struct {
	Duration  time.Duration
	Completed int
	Errors    int
	Latency   metrics.Histogram
	Bytes     uint64
}

// Throughput is successful requests per second — the paper's Figure 2
// metric.
func (r *Result) Throughput() float64 { return metrics.Rate(r.Completed, r.Duration) }

// ClosedLoop drives N concurrent clients, each issuing requests
// back-to-back over a persistent connection (jmeter thread groups).
type ClosedLoop struct {
	Transport *secio.Transport
	Target    netip.Addr
	Port      uint16
	Clients   int
	Duration  time.Duration
	// NextPath generates request paths (shared; the simulator is
	// single-threaded so no locking is needed).
	NextPath func() string
	// Timeout aborts a request and reconnects (jmeter response timeout).
	Timeout time.Duration
	// Warmup discards samples before this offset.
	Warmup time.Duration
}

// Run executes the workload; it spawns client processes and returns after
// sim.Run reaches quiescence or the horizon. Call before sim.Run; read
// the result after.
func (w *ClosedLoop) Run(sim *netsim.Sim) *Result {
	res := &Result{Duration: w.Duration - w.Warmup}
	timeout := w.Timeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	for i := 0; i < w.Clients; i++ {
		sim.Spawn("client", func(p *netsim.Proc) {
			end := p.Now() + w.Duration
			c := newClient(sim, map[string]string{"Host": "rubis"})
			defer func() {
				if c.conn != nil {
					c.conn.Close()
				}
			}()
			for p.Now() < end {
				if c.conn == nil {
					conn, err := w.Transport.Dial(p, w.Target, w.Port)
					if err != nil {
						res.Errors++
						p.Sleep(100 * time.Millisecond)
						continue
					}
					c.conn = conn
					c.br = bufio.NewReader(conn)
				}
				start := p.Now()
				c.req.Path = w.NextPath()
				err := c.roundTrip(p, timeout)
				took := p.Now() - start
				if err != nil || c.resp.Status != 200 {
					res.Errors++
					c.conn.Close()
					c.conn = nil
					continue
				}
				if p.Now()-0 >= w.Warmup {
					res.Completed++
					res.Latency.Add(took)
					res.Bytes += uint64(len(c.resp.Body))
				}
			}
		})
	}
	return res
}

// client is one client's connection and messages, reused across its
// requests: a response body is valid until the client's next request.
type client struct {
	conn     secio.Conn
	br       *bufio.Reader
	req      microhttp.Request
	resp     microhttp.Response
	watchdog *netsim.Timer
	fired    bool // the watchdog aborted the request in flight
}

func newClient(sim *netsim.Sim, headers map[string]string) *client {
	c := &client{req: microhttp.Request{Method: "GET", Headers: headers}}
	c.watchdog = sim.NewTimer(func() {
		c.fired = true
		c.conn.Abort()
	})
	return c
}

// roundTrip performs one HTTP exchange into c.resp, giving up after
// timeout. Simulated reads have no deadline support at this layer, so the
// timeout is enforced with a watchdog that aborts the connection. Abort
// (not Close) is required: a graceful close never unblocks a reader
// stalled on a dead server, so the client would hang instead of timing
// out.
func (c *client) roundTrip(p *netsim.Proc, timeout time.Duration) error {
	c.fired = false
	c.watchdog.Reset(p.Now() + timeout)
	err := microhttp.WriteRequest(c.conn, &c.req)
	if err == nil {
		err = microhttp.ReadResponseInto(c.br, &c.resp)
	}
	c.watchdog.Stop()
	if c.fired && err == nil {
		// The watchdog closed us mid-flight; treat as failure.
		return microhttp.ErrMalformed
	}
	return err
}

// OpenLoop issues requests at a fixed rate, a new connection per request
// (httperf --rate). Response times at a given offered load are the
// paper's §V-B metric.
type OpenLoop struct {
	Transport *secio.Transport
	Target    netip.Addr
	Port      uint16
	Rate      float64 // requests per second
	Duration  time.Duration
	NextPath  func() string
	Timeout   time.Duration
	Warmup    time.Duration
}

// Run schedules the request processes. Call before sim.Run.
func (w *OpenLoop) Run(sim *netsim.Sim) *Result {
	res := &Result{Duration: w.Duration - w.Warmup}
	timeout := w.Timeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	interval := time.Duration(float64(time.Second) / w.Rate)
	n := int(w.Duration.Seconds() * w.Rate)
	for i := 0; i < n; i++ {
		at := time.Duration(i) * interval
		sim.At(at, func() {
			sim.Spawn("req", func(p *netsim.Proc) {
				start := p.Now()
				conn, err := w.Transport.Dial(p, w.Target, w.Port)
				if err != nil {
					res.Errors++
					return
				}
				defer conn.Close()
				c := newClient(sim, map[string]string{"Host": "rubis", "Connection": "close"})
				c.conn, c.br = conn, bufio.NewReader(conn)
				c.req.Path = w.NextPath()
				if err := c.roundTrip(p, timeout); err != nil || c.resp.Status != 200 {
					res.Errors++
					return
				}
				if start >= w.Warmup {
					res.Completed++
					res.Latency.Add(p.Now() - start)
					res.Bytes += uint64(len(c.resp.Body))
				}
			})
		})
	}
	return res
}

// BulkResult reports an iperf-style transfer.
type BulkResult struct {
	Bytes    uint64
	Duration time.Duration
	Err      error
}

// Mbps is the measured goodput.
func (b *BulkResult) Mbps() float64 { return metrics.Mbps(b.Bytes, b.Duration) }

// Bulk transfers totalBytes from a client to a sink (iperf -c / -s).
type Bulk struct {
	Client *secio.Transport
	Server *secio.Transport
	Target netip.Addr
	Port   uint16
	Total  int
}

// Run spawns sink and source processes. Call before sim.Run; read the
// result after.
func (b *Bulk) Run(sim *netsim.Sim) *BulkResult {
	res := &BulkResult{}
	l := b.Server.MustListen(b.Port)
	sim.Spawn("iperf-sink", func(p *netsim.Proc) {
		c, err := l.Accept(p, 0)
		if err != nil {
			res.Err = err
			return
		}
		defer c.Close()
		start := p.Now()
		buf := make([]byte, 64*1024)
		for res.Bytes < uint64(b.Total) {
			n, err := c.Read(buf)
			if n > 0 {
				res.Bytes += uint64(n)
			}
			if err != nil {
				break
			}
		}
		res.Duration = p.Now() - start
	})
	sim.Spawn("iperf-src", func(p *netsim.Proc) {
		c, err := b.Client.Dial(p, b.Target, b.Port)
		if err != nil {
			res.Err = err
			return
		}
		defer c.Close()
		chunk := make([]byte, 32*1024)
		sent := 0
		for sent < b.Total {
			n := b.Total - sent
			if n > len(chunk) {
				n = len(chunk)
			}
			m, err := c.Write(chunk[:n])
			sent += m
			if err != nil {
				res.Err = err
				return
			}
		}
	})
	return res
}

// PingSeries runs n echo round trips using the given single-probe
// function and returns the histogram (the paper's "average response
// times for ICMP for 20 requests").
func PingSeries(sim *netsim.Sim, n int, gap time.Duration, probe func(p *netsim.Proc) (time.Duration, error)) *metrics.Histogram {
	h := &metrics.Histogram{}
	sim.Spawn("pinger", func(p *netsim.Proc) {
		for i := 0; i < n; i++ {
			rtt, err := probe(p)
			if err == nil {
				h.Add(rtt)
			}
			p.Sleep(gap)
		}
	})
	return h
}
