// Package hipdns is a miniature DNS implementation carrying the HIP
// resource records of RFC 5205: A/AAAA records plus HIP RRs (HIT, public
// key, rendezvous servers). The paper's future-work section calls out
// automated DNS for production deployments; this package provides the
// server, a caching resolver with the short-TTL re-contact behaviour the
// paper cites for mobility, and dynamic updates for migrating VMs.
//
// The wire format is a compact DNS-like encoding (fixed header, one
// question, answer records) without RFC 1035 name compression.
package hipdns

import (
	"encoding/binary"
	"errors"
	"net/netip"
	"time"

	"hipcloud/internal/netsim"
)

// Port is the DNS service port.
const Port uint16 = 53

// RRType identifies record types (IANA values).
type RRType uint16

// Supported record types.
const (
	TypeA    RRType = 1
	TypeAAAA RRType = 28
	TypeHIP  RRType = 55
)

func (t RRType) String() string {
	switch t {
	case TypeA:
		return "A"
	case TypeAAAA:
		return "AAAA"
	case TypeHIP:
		return "HIP"
	}
	return "TYPE?"
}

// Errors returned by the resolver.
var (
	ErrNoRecord = errors.New("hipdns: no such record")
	ErrTimeout  = errors.New("hipdns: query timed out")
	ErrBadMsg   = errors.New("hipdns: malformed message")
)

// HIPRecord is the RFC 5205 HIP RR payload.
type HIPRecord struct {
	HIT       netip.Addr
	Algorithm uint8
	PublicKey []byte
	// RendezvousServers lists RVS addresses for re-contacting mobile
	// hosts.
	RendezvousServers []netip.Addr
}

// Record is one resource record.
type Record struct {
	Name string
	Type RRType
	TTL  time.Duration
	// Addr holds A/AAAA data.
	Addr netip.Addr
	// HIP holds TypeHIP data.
	HIP *HIPRecord
}

// --- wire codec ---

// message layout: txid(2) flags(1: 0=query 1=response, |2=nxdomain,
// |4=retry-after i.e. server shed the query under overload)
// qtype(2) qnameLen(1) qname answerCount(1) answers...
// answer: type(2) ttlSecs(4) dataLen(2) data.

func putString(b []byte, s string) []byte {
	b = append(b, byte(len(s)))
	return append(b, s...)
}

func encodeQuery(txid uint16, name string, t RRType) []byte {
	b := make([]byte, 0, 8+len(name))
	b = binary.BigEndian.AppendUint16(b, txid)
	b = append(b, 0)
	b = binary.BigEndian.AppendUint16(b, uint16(t))
	b = putString(b, name)
	return b
}

func encodeRecordData(r Record) []byte {
	switch r.Type {
	case TypeA:
		a := r.Addr.As4()
		return a[:]
	case TypeAAAA:
		a := r.Addr.As16()
		return a[:]
	case TypeHIP:
		h := r.HIP
		hit := h.HIT.As16()
		b := make([]byte, 0, 20+len(h.PublicKey)+16*len(h.RendezvousServers))
		b = append(b, 16, h.Algorithm)
		b = binary.BigEndian.AppendUint16(b, uint16(len(h.PublicKey)))
		b = append(b, hit[:]...)
		b = append(b, h.PublicKey...)
		b = append(b, byte(len(h.RendezvousServers)))
		for _, rvs := range h.RendezvousServers {
			a := rvs.As16()
			b = append(b, a[:]...)
		}
		return b
	}
	return nil
}

func decodeRecordData(t RRType, data []byte) (Record, error) {
	r := Record{Type: t}
	switch t {
	case TypeA:
		if len(data) != 4 {
			return r, ErrBadMsg
		}
		r.Addr = netip.AddrFrom4([4]byte(data))
	case TypeAAAA:
		if len(data) != 16 {
			return r, ErrBadMsg
		}
		r.Addr = netip.AddrFrom16([16]byte(data))
	case TypeHIP:
		if len(data) < 4 {
			return r, ErrBadMsg
		}
		hitLen := int(data[0])
		alg := data[1]
		pkLen := int(binary.BigEndian.Uint16(data[2:]))
		if hitLen != 16 || len(data) < 4+16+pkLen+1 {
			return r, ErrBadMsg
		}
		var hit [16]byte
		copy(hit[:], data[4:20])
		h := &HIPRecord{HIT: netip.AddrFrom16(hit), Algorithm: alg}
		h.PublicKey = append([]byte(nil), data[20:20+pkLen]...)
		off := 20 + pkLen
		nRVS := int(data[off])
		off++
		if len(data) < off+16*nRVS {
			return r, ErrBadMsg
		}
		for i := 0; i < nRVS; i++ {
			var a [16]byte
			copy(a[:], data[off+16*i:])
			addr := netip.AddrFrom16(a)
			if addr.Is4In6() {
				addr = addr.Unmap()
			}
			h.RendezvousServers = append(h.RendezvousServers, addr)
		}
		r.HIP = h
	default:
		return r, ErrBadMsg
	}
	return r, nil
}

// encodeRetryAfter builds the shed response: a response-flagged message
// with the retry-after bit and no answers. The resolver backs off and
// retries (or serves stale) instead of hammering an overloaded server.
func encodeRetryAfter(txid uint16, name string, t RRType) []byte {
	b := make([]byte, 0, 8+len(name))
	b = binary.BigEndian.AppendUint16(b, txid)
	b = append(b, 1|4)
	b = binary.BigEndian.AppendUint16(b, uint16(t))
	b = putString(b, name)
	return append(b, 0)
}

func encodeResponse(txid uint16, name string, t RRType, recs []Record) []byte {
	b := make([]byte, 0, 64)
	b = binary.BigEndian.AppendUint16(b, txid)
	flags := byte(1)
	if len(recs) == 0 {
		flags |= 2
	}
	b = append(b, flags)
	b = binary.BigEndian.AppendUint16(b, uint16(t))
	b = putString(b, name)
	b = append(b, byte(len(recs)))
	for _, r := range recs {
		b = binary.BigEndian.AppendUint16(b, uint16(r.Type))
		b = binary.BigEndian.AppendUint32(b, uint32(r.TTL/time.Second))
		data := encodeRecordData(r)
		b = binary.BigEndian.AppendUint16(b, uint16(len(data)))
		b = append(b, data...)
	}
	return b
}

type parsedMsg struct {
	txid       uint16
	response   bool
	nxdomain   bool
	retryAfter bool
	qtype      RRType
	name       string
	answers    []Record
}

func parseMessage(b []byte) (parsedMsg, error) {
	var m parsedMsg
	if len(b) < 6 {
		return m, ErrBadMsg
	}
	m.txid = binary.BigEndian.Uint16(b)
	m.response = b[2]&1 != 0
	m.nxdomain = b[2]&2 != 0
	m.retryAfter = b[2]&4 != 0
	m.qtype = RRType(binary.BigEndian.Uint16(b[3:]))
	nameLen := int(b[5])
	if len(b) < 6+nameLen {
		return m, ErrBadMsg
	}
	m.name = string(b[6 : 6+nameLen])
	off := 6 + nameLen
	if !m.response {
		return m, nil
	}
	if len(b) < off+1 {
		return m, ErrBadMsg
	}
	n := int(b[off])
	off++
	for i := 0; i < n; i++ {
		if len(b) < off+8 {
			return m, ErrBadMsg
		}
		t := RRType(binary.BigEndian.Uint16(b[off:]))
		ttl := time.Duration(binary.BigEndian.Uint32(b[off+2:])) * time.Second
		dl := int(binary.BigEndian.Uint16(b[off+6:]))
		off += 8
		if len(b) < off+dl {
			return m, ErrBadMsg
		}
		rec, err := decodeRecordData(t, b[off:off+dl])
		if err != nil {
			return m, err
		}
		rec.Name = m.name
		rec.TTL = ttl
		m.answers = append(m.answers, rec)
		off += dl
	}
	return m, nil
}

// DefaultMaxPending bounds the server's inflight-query queue when a
// per-query cost makes service time non-zero.
const DefaultMaxPending = 64

// Server is an authoritative nameserver on a simulated node.
type Server struct {
	node *netsim.Node
	sock *netsim.UDPSocket
	zone map[string][]Record

	// PerQueryCost charges this much node CPU per served query. Zero
	// keeps the original free inline path; non-zero makes the server a
	// finite resource: queries queue behind the charge, the queue is
	// bounded at MaxPending, and overflow is answered with retry-after
	// instead of silence — bounded inflight, shed the rest.
	PerQueryCost time.Duration
	// MaxPending bounds the pending queue (0 = DefaultMaxPending;
	// only meaningful with PerQueryCost > 0).
	MaxPending int
	pending    []netsim.Datagram
	kicked     bool
	charging   bool
	serviceFn  func()
	doneFn     func()

	// Queries counts served lookups; Shed counts queries answered with
	// retry-after because the pending queue was full.
	Queries uint64
	Shed    uint64
}

// NewServer starts a DNS server on node.
func NewServer(node *netsim.Node) *Server {
	s := &Server{node: node, zone: make(map[string][]Record)}
	s.sock = node.MustBindUDP(Port)
	s.sock.Handler = s.onQuery
	s.serviceFn = s.service
	s.doneFn = s.chargeDone
	return s
}

// Addr returns the server address.
func (s *Server) Addr() netip.Addr { return s.node.Addr() }

// Set replaces the records of (name, type) — dynamic DNS update for VM
// migration.
func (s *Server) Set(name string, recs ...Record) {
	var kept []Record
	types := map[RRType]bool{}
	for _, r := range recs {
		types[r.Type] = true
	}
	for _, r := range s.zone[name] {
		if !types[r.Type] {
			kept = append(kept, r)
		}
	}
	for i := range recs {
		recs[i].Name = name
	}
	s.zone[name] = append(kept, recs...)
}

func (s *Server) onQuery(dg netsim.Datagram) {
	if s.PerQueryCost <= 0 {
		s.answer(dg)
		return
	}
	max := s.MaxPending
	if max <= 0 {
		max = DefaultMaxPending
	}
	if len(s.pending) >= max {
		s.Shed++
		if m, err := parseMessage(dg.Payload); err == nil && !m.response {
			s.sock.SendTo(dg.Src, encodeRetryAfter(m.txid, m.name, m.qtype))
		}
		return
	}
	s.pending = append(s.pending, dg)
	s.kick()
}

// kick schedules a service pass, coalescing wake requests (the hipsim
// run-to-completion pattern).
func (s *Server) kick() {
	if s.kicked || s.charging {
		return
	}
	s.kicked = true
	sim := s.node.Net().Sim()
	sim.At(sim.Now(), s.serviceFn)
}

// service starts the CPU charge for the query at the head of the queue.
func (s *Server) service() {
	s.kicked = false
	if s.charging || len(s.pending) == 0 {
		return
	}
	s.charging = true
	s.node.CPU().UseAsync(s.PerQueryCost, s.doneFn)
}

// chargeDone answers the charged query and moves to the next.
func (s *Server) chargeDone() {
	s.charging = false
	if len(s.pending) > 0 {
		dg := s.pending[0]
		s.pending = s.pending[1:]
		s.answer(dg)
	}
	if len(s.pending) > 0 {
		s.kick()
	}
}

func (s *Server) answer(dg netsim.Datagram) {
	m, err := parseMessage(dg.Payload)
	if err != nil || m.response {
		return
	}
	s.Queries++
	var out []Record
	for _, r := range s.zone[m.name] {
		if r.Type == m.qtype {
			out = append(out, r)
		}
	}
	s.sock.SendTo(dg.Src, encodeResponse(m.txid, m.name, m.qtype, out))
}

// DefaultStaleFor is how long past TTL expiry a cached answer remains
// eligible for serve-stale when fresh resolution fails (RFC 8767-style).
const DefaultStaleFor = 30 * time.Second

// Resolver queries a server with retries and a TTL-honouring cache.
// Under overload it degrades instead of oscillating: expired cache
// entries are served stale when the server is unreachable or shedding,
// retransmissions are paced by jittered exponential backoff, and a
// token-bucket retry budget bounds how much retry traffic one client
// adds to a herd.
type Resolver struct {
	node   *netsim.Node
	server netip.AddrPort
	sock   *netsim.UDPSocket
	txid   uint16
	cache  map[cacheKey]cacheEntry
	wait   map[uint16]*pendingQuery

	// StaleFor bounds how long past expiry an entry may be served stale
	// (0 = DefaultStaleFor, negative = serve-stale disabled).
	StaleFor time.Duration
	// RetryBudget enables the retry token bucket: at most RetryBudget
	// tokens, refilled at RetryPerSec (default 1/s), one consumed per
	// retransmitted query. Zero = unlimited retries (the old behavior).
	RetryBudget  float64
	RetryPerSec  float64
	tokens       float64
	lastRefill   netsim.VTime
	tokensPrimed bool

	// Lookups/CacheHits count resolver activity; Retries counts
	// retransmitted queries, ServedStale answers served past TTL, and
	// BudgetDenied retries suppressed by an empty token bucket.
	Lookups, CacheHits uint64
	Retries            uint64
	ServedStale        uint64
	BudgetDenied       uint64
}

type cacheKey struct {
	name string
	t    RRType
}

type cacheEntry struct {
	recs    []Record
	expires netsim.VTime
}

type pendingQuery struct {
	wq   *netsim.WaitQueue
	done bool
	msg  parsedMsg
}

// NewResolver creates a resolver on node pointing at server.
func NewResolver(node *netsim.Node, server netip.Addr) *Resolver {
	r := &Resolver{
		node:   node,
		server: netip.AddrPortFrom(server, Port),
		cache:  make(map[cacheKey]cacheEntry),
		wait:   make(map[uint16]*pendingQuery),
	}
	r.sock = node.MustBindUDP(0)
	r.sock.Handler = func(dg netsim.Datagram) {
		m, err := parseMessage(dg.Payload)
		if err != nil || !m.response {
			return
		}
		if pq := r.wait[m.txid]; pq != nil && !pq.done {
			pq.done = true
			pq.msg = m
			pq.wq.WakeAll()
		}
	}
	return r
}

// staleFor returns the serve-stale window (≤0 disables).
func (r *Resolver) staleFor() time.Duration {
	if r.StaleFor == 0 {
		return DefaultStaleFor
	}
	return r.StaleFor
}

// takeToken refills and consumes from the retry bucket; true admits the
// retry. With RetryBudget == 0 retries are unlimited.
func (r *Resolver) takeToken(now netsim.VTime) bool {
	if r.RetryBudget <= 0 {
		return true
	}
	rate := r.RetryPerSec
	if rate <= 0 {
		rate = 1
	}
	if !r.tokensPrimed {
		r.tokens = r.RetryBudget
		r.tokensPrimed = true
	} else if dt := now - r.lastRefill; dt > 0 {
		r.tokens += rate * float64(dt) / float64(time.Second)
		if r.tokens > r.RetryBudget {
			r.tokens = r.RetryBudget
		}
	}
	r.lastRefill = now
	if r.tokens < 1 {
		r.BudgetDenied++
		return false
	}
	r.tokens--
	return true
}

// Lookup resolves (name, type), blocking p. Cached answers are served
// until their TTL expires; when resolution fails while a lapsed entry is
// still within the serve-stale window, the stale answer is returned
// rather than an error — re-contact degrades to possibly-outdated data
// instead of joining the herd hammering the nameserver.
func (r *Resolver) Lookup(p *netsim.Proc, name string, t RRType) ([]Record, error) {
	r.Lookups++
	key := cacheKey{name, t}
	var stale []Record
	if e, ok := r.cache[key]; ok {
		now := p.Now()
		if now < e.expires {
			r.CacheHits++
			return e.recs, nil
		}
		if sw := r.staleFor(); sw > 0 && now < e.expires+sw {
			stale = e.recs
		} else {
			delete(r.cache, key)
		}
	}
	rng := r.node.Net().Sim().Rand()
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			if !r.takeToken(p.Now()) {
				break
			}
			r.Retries++
			// Jittered backoff (±50% around 250ms·2^(attempt-1)) paces
			// the retry so a synchronized resolver herd de-correlates;
			// the shared sim RNG keeps it deterministic per seed.
			base := 250 * time.Millisecond << uint(attempt-1)
			p.Sleep(base/2 + time.Duration(float64(base)*rng.Float64()))
		}
		r.txid++
		txid := r.txid
		pq := &pendingQuery{wq: netsim.NewWaitQueue(r.node.Net().Sim())}
		r.wait[txid] = pq
		r.sock.SendTo(r.server, encodeQuery(txid, name, t))
		timedOut := false
		if !pq.done {
			timedOut = pq.wq.Wait(p, time.Second)
		}
		delete(r.wait, txid)
		if timedOut || !pq.done {
			continue
		}
		if pq.msg.retryAfter {
			// The server shed us: honor the backpressure and retry on
			// our backoff schedule (or fall back to stale below).
			continue
		}
		if pq.msg.nxdomain || len(pq.msg.answers) == 0 {
			return nil, ErrNoRecord
		}
		minTTL := pq.msg.answers[0].TTL
		for _, a := range pq.msg.answers {
			if a.TTL < minTTL {
				minTTL = a.TTL
			}
		}
		if minTTL > 0 {
			r.cache[key] = cacheEntry{recs: pq.msg.answers, expires: p.Now() + minTTL}
		}
		return pq.msg.answers, nil
	}
	if stale != nil {
		r.ServedStale++
		return stale, nil
	}
	return nil, ErrTimeout
}

// LookupHIP resolves the HIP RR for name.
func (r *Resolver) LookupHIP(p *netsim.Proc, name string) (*HIPRecord, error) {
	recs, err := r.Lookup(p, name, TypeHIP)
	if err != nil {
		return nil, err
	}
	return recs[0].HIP, nil
}

// LookupAddr resolves the A record for name.
func (r *Resolver) LookupAddr(p *netsim.Proc, name string) (netip.Addr, error) {
	recs, err := r.Lookup(p, name, TypeA)
	if err != nil {
		return netip.Addr{}, err
	}
	return recs[0].Addr, nil
}
