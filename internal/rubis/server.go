package rubis

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"slices"
	"strings"
	"time"

	"hipcloud/internal/metrics"
	"hipcloud/internal/microhttp"
	"hipcloud/internal/netsim"
	"hipcloud/internal/secio"
)

// Well-known service ports.
const (
	DBPort  uint16 = 3306
	WebPort uint16 = 80
)

// ErrDBProto is returned on database protocol violations.
var ErrDBProto = errors.New("rubis: database protocol error")

// --- database wire protocol: 4-byte length frames, response prefixed
// with a status byte ---

// writeFrame sends frame, whose first 4 bytes it fills with the length of
// the rest: the header in one Write, then the payload in another.
func writeFrame(w io.Writer, frame []byte) error {
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	if _, err := w.Write(frame[:4]); err != nil {
		return err
	}
	_, err := w.Write(frame[4:])
	return err
}

// readFrame reads one frame and appends its payload to dst.
func readFrame(r io.Reader, dst []byte) ([]byte, error) {
	n0 := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	if _, err := io.ReadFull(r, dst[n0:]); err != nil {
		return dst[:n0], err
	}
	n := int(binary.BigEndian.Uint32(dst[n0:]))
	if n > 4<<20 {
		return dst[:n0], ErrDBProto
	}
	dst = slices.Grow(dst[:n0], n)[:n0+n]
	if _, err := io.ReadFull(r, dst[n0:]); err != nil {
		return dst[:n0], err
	}
	return dst, nil
}

// DBServer serves the query protocol over a secio transport.
type DBServer struct {
	DB        *Database
	Transport *secio.Transport
	// Served counts completed queries.
	Served uint64
}

// Run accepts connections until the simulation ends. Call from Spawn.
func (s *DBServer) Run(p *netsim.Proc) {
	l := s.Transport.MustListen(DBPort)
	for {
		raw, err := l.AcceptRaw(p, 0)
		if err != nil {
			return
		}
		conn := raw
		p.Spawn("db-handler", func(hp *netsim.Proc) {
			c, err := s.Transport.ServerConn(hp, conn)
			if err != nil {
				return
			}
			defer c.Close()
			node := s.Transport.Stack.Node()
			// The query and response frames are reused across the
			// connection's queries.
			var q, resp []byte
			for {
				if q, err = readFrame(c, q[:0]); err != nil {
					return
				}
				resp = append(resp[:0], 0, 0, 0, 0, 0) // length, status
				var cost time.Duration
				var qerr error
				resp, cost, qerr = s.DB.ExecuteAppend(resp, string(q))
				node.CPU().Use(hp, cost)
				if qerr != nil {
					resp = append(resp[:4], 1)
					resp = append(resp, qerr.Error()...)
				}
				if err := writeFrame(c, resp); err != nil {
					return
				}
				s.Served++
			}
		})
	}
}

// DBClient is a pooled client to a DBServer.
type DBClient struct{ pool *secio.Pool }

// NewDBClient creates a client pool of the given size toward addr (an IP,
// HIT or LSI depending on the transport).
func NewDBClient(t *secio.Transport, addr netip.Addr, size int) *DBClient {
	return &DBClient{pool: secio.NewPool(t, addr, DBPort, size)}
}

// Query executes one query through the pool and appends its result to
// dst. A connection whose write or read failed is dropped from the pool,
// not handed to the next query.
func (c *DBClient) Query(p *netsim.Proc, dst []byte, q string) ([]byte, error) {
	pc, err := c.pool.Acquire(p)
	if err != nil {
		return dst, err
	}
	// The query frame is built past dst's end: Write has copied it out
	// before the response frame lands on the same bytes.
	n := len(dst)
	frame := append(append(dst, 0, 0, 0, 0), q...)
	if err = writeFrame(pc, frame[n:]); err == nil {
		dst, err = readFrame(pc.R, frame[:n])
	}
	c.pool.Release(pc, err != nil)
	switch {
	case err != nil:
		return dst, err
	case len(dst) == n:
		return dst, ErrDBProto
	case dst[n] != 0:
		return dst[:n], fmt.Errorf("rubis: query %q: %s", q, dst[n+1:])
	}
	return append(dst[:n], dst[n+1:]...), nil // drop the status byte
}

// WebConfig tunes the web tier.
type WebConfig struct {
	// RequestCPU is the PHP-equivalent per-request processing cost on
	// the reference core (template rendering, parameter handling).
	RequestCPU time.Duration
	// RenderNsPerByte is charged per response-body byte produced.
	RenderNsPerByte float64
	// HTMLOverhead pads every response with this much markup.
	HTMLOverhead int
	// DBPool is the database connection pool size per web server.
	DBPool int
}

// DefaultWebConfig approximates the paper's PHP RUBiS on Apache.
var DefaultWebConfig = WebConfig{
	RequestCPU:      3500 * time.Microsecond,
	RenderNsPerByte: 60,
	HTMLOverhead:    20 << 10,
	DBPool:          6,
}

// WebServer is one web-tier VM.
type WebServer struct {
	Name      string
	Config    WebConfig
	Transport *secio.Transport // listener side (from proxy)
	DB        *DBClient
	// Served counts completed HTTP requests; Errors counts failures.
	Served, Errors uint64
	// Latency records request service times (accept-to-response).
	Latency metrics.Histogram
}

// Run accepts and serves HTTP connections. Call from Spawn.
func (w *WebServer) Run(p *netsim.Proc) {
	cfg := w.Config
	if cfg.DBPool <= 0 {
		cfg.DBPool = DefaultWebConfig.DBPool
	}
	l := w.Transport.MustListen(WebPort)
	for {
		raw, err := l.AcceptRaw(p, 0)
		if err != nil {
			return
		}
		conn := raw
		p.Spawn(w.Name+"/handler", func(hp *netsim.Proc) {
			c, err := w.Transport.ServerConn(hp, conn)
			if err != nil {
				return
			}
			defer c.Close()
			br := bufio.NewReader(c)
			// The request and response, page included, are reused across
			// the connection's requests: WriteResponse has copied the page
			// into the connection before the next ReadRequestInto.
			var req microhttp.Request
			var resp microhttp.Response
			headers := map[string]string{"Content-Type": "text/html", "X-Served-By": w.Name}
			for {
				if err := microhttp.ReadRequestInto(br, &req); err != nil {
					return
				}
				start := hp.Now()
				resp.Status, resp.Body = w.handle(hp, &req, resp.Body)
				resp.Headers = headers
				if resp.Status != 200 {
					resp.Headers = nil
					w.Errors++
				}
				if err := microhttp.WriteResponse(c, &resp); err != nil {
					return
				}
				w.Served++
				w.Latency.Add(hp.Now() - start)
				if req.WantsClose() {
					return
				}
			}
		})
	}
}

// handle maps an HTTP request to database queries and renders the
// response body, a page or an error, in buf's array.
func (w *WebServer) handle(p *netsim.Proc, req *microhttp.Request, buf []byte) (status int, body []byte) {
	node := w.Transport.Stack.Node()
	node.CPU().Use(p, w.Config.RequestCPU)
	queries, status := routeToQueries(req.Path)
	if status != 200 {
		return status, append(buf[:0], "no such page"...)
	}
	// HTML wrapping around the query results.
	page := append(buf[:0], "<html><body><!-- RUBiS "...)
	page = append(page, w.Name...)
	page = append(page, " -->"...)
	for _, q := range queries {
		var err error
		if page, err = w.DB.Query(p, page, q); err != nil {
			return 502, append(page[:0], err.Error()...)
		}
	}
	page = append(page, make([]byte, w.Config.HTMLOverhead)...)
	page = append(page, "</body></html>"...)
	node.CPU().Use(p, time.Duration(w.Config.RenderNsPerByte*float64(len(page))))
	return 200, page
}

// routeToQueries maps RUBiS URL paths to database query batches.
func routeToQueries(path string) ([]string, int) {
	path = strings.TrimPrefix(path, "/")
	q := ""
	if i := strings.IndexByte(path, '?'); i >= 0 {
		q = path[i+1:]
		path = path[:i]
	}
	parts := strings.Split(path, "/")
	arg := func(i int) string {
		if i < len(parts) {
			return parts[i]
		}
		return "0"
	}
	switch parts[0] {
	case "", "home":
		return []string{"home"}, 200
	case "browse":
		return []string{"browse " + arg(1) + " " + arg(2)}, 200
	case "search":
		return []string{"search " + arg(1) + " " + arg(2)}, 200
	case "item":
		// Item page shows the item and its bid history: two queries.
		return []string{"item " + arg(1), "bids " + arg(1)}, 200
	case "user":
		return []string{"user " + arg(1)}, 200
	case "about":
		return []string{"about " + arg(1)}, 200
	case "bid":
		// /bid/<item>/<user>?amount=N — view then write.
		amount := strings.TrimPrefix(q, "amount=")
		if amount == "" {
			amount = "1"
		}
		return []string{
			"item " + arg(1),
			"bid " + arg(1) + " " + arg(2) + " " + amount,
		}, 200
	case "sell":
		// /sell/<seller>/<cat>?price=N — list a new item.
		price := strings.TrimPrefix(q, "price=")
		if price == "" {
			price = "100"
		}
		return []string{"sell " + arg(1) + " " + arg(2) + " " + price}, 200
	case "register":
		return []string{"register " + arg(1)}, 200
	}
	return nil, 404
}

// Mix generates the RUBiS browse workload: a random stream of page URLs
// weighted like the read-mostly RUBiS browsing mix the paper drove with
// jmeter ("random HTTP GET requests that resulted in queries to the
// database server").
type Mix struct {
	rng    *rand.Rand
	nItems int
	nUsers int
	// WriteFraction adds bid requests (zero for the paper's GET-only run).
	WriteFraction float64
}

// NewMix creates a generator over a dataset's id spaces.
func NewMix(seed int64, nItems, nUsers int) *Mix {
	return &Mix{rng: rand.New(rand.NewSource(seed)), nItems: nItems, nUsers: nUsers}
}

// Next returns the next request path.
func (m *Mix) Next() string {
	if m.WriteFraction > 0 && m.rng.Float64() < m.WriteFraction {
		return fmt.Sprintf("/bid/%d/%d?amount=%d",
			m.rng.Intn(m.nItems), m.rng.Intn(m.nUsers), 1_000_000+m.rng.Intn(100000))
	}
	r := m.rng.Float64()
	switch {
	case r < 0.10:
		return "/home"
	case r < 0.40:
		return fmt.Sprintf("/browse/%d/%d", m.rng.Intn(NumCategories), m.rng.Intn(3))
	case r < 0.75:
		return fmt.Sprintf("/item/%d", m.rng.Intn(m.nItems))
	case r < 0.90:
		return fmt.Sprintf("/user/%d", m.rng.Intn(m.nUsers))
	default:
		return fmt.Sprintf("/search/%d/%d", m.rng.Intn(NumCategories), m.rng.Intn(2))
	}
}
