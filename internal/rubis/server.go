package rubis

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
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

func writeFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > 4<<20 {
		return nil, ErrDBProto
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
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
			for {
				q, err := readFrame(c)
				if err != nil {
					return
				}
				result, cost, qerr := s.DB.Execute(string(q))
				node.CPU().Use(hp, cost)
				resp := make([]byte, 1, 1+len(result))
				if qerr != nil {
					resp[0] = 1
					resp = append(resp, []byte(qerr.Error())...)
				} else {
					resp = append(resp, result...)
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

// Query executes one query through the pool. A connection whose write or
// read failed is dropped from the pool, not handed to the next query.
func (c *DBClient) Query(p *netsim.Proc, q string) ([]byte, error) {
	pc, err := c.pool.Acquire(p)
	if err != nil {
		return nil, err
	}
	var resp []byte
	if err = writeFrame(pc, []byte(q)); err == nil {
		resp, err = readFrame(pc.R)
	}
	c.pool.Release(pc, err != nil)
	if err != nil {
		return nil, err
	}
	if len(resp) == 0 {
		return nil, ErrDBProto
	}
	if resp[0] != 0 {
		return nil, fmt.Errorf("rubis: query %q: %s", q, resp[1:])
	}
	return resp[1:], nil
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
			for {
				req, err := microhttp.ReadRequest(br)
				if err != nil {
					return
				}
				start := hp.Now()
				resp := w.handle(hp, req)
				if resp.Status != 200 {
					w.Errors++
				}
				if err := microhttp.WriteResponse(c, resp); err != nil {
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

// handle maps an HTTP request to database queries and renders the page.
func (w *WebServer) handle(p *netsim.Proc, req *microhttp.Request) *microhttp.Response {
	node := w.Transport.Stack.Node()
	node.CPU().Use(p, w.Config.RequestCPU)
	queries, status := routeToQueries(req.Path)
	if status != 200 {
		return &microhttp.Response{Status: status, Body: []byte("no such page")}
	}
	var body []byte
	for _, q := range queries {
		result, err := w.DB.Query(p, q)
		if err != nil {
			return &microhttp.Response{Status: 502, Body: []byte(err.Error())}
		}
		body = append(body, result...)
	}
	// HTML wrapping.
	page := make([]byte, 0, len(body)+w.Config.HTMLOverhead)
	page = append(page, []byte("<html><body><!-- RUBiS "+w.Name+" -->")...)
	page = append(page, body...)
	page = append(page, make([]byte, w.Config.HTMLOverhead)...)
	page = append(page, []byte("</body></html>")...)
	node.CPU().Use(p, time.Duration(w.Config.RenderNsPerByte*float64(len(page))))
	return &microhttp.Response{
		Status:  200,
		Headers: map[string]string{"Content-Type": "text/html", "X-Served-By": w.Name},
		Body:    page,
	}
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
