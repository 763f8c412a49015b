package main

import (
	"encoding/json"
	"sort"

	"hipcloud/internal/keymat"
)

// Workload names, as the driver passes them in --workload.
const (
	wBulkGCM = "udp_bulk_gcm"
	wBulkCTR = "udp_bulk_ctr"
	wRR      = "udp_rr"
	wConnect = "udp_connect"
	wSim     = "sim_rubis"
)

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadSpecs = []workloadSpec{
	{wBulkGCM, "one-way hipudp stream of 16 KiB writes on AES-128-GCM: hipudp+stream+socket do ~95% of the work and esp ~4%, so seal-to-socket plumbing shows here and a crypto change should not"},
	{wBulkCTR, "the same transfer on AES-CTR-SHA256, the paper-era suite: esp seal/open is about a third of the CPU per packet, so seal-path work shows here and barely on udp_bulk_gcm"},
	{wRR, "closed-loop 64-byte request/echo on one connection: one packet per batch, crypto negligible, cost is lock hand-off and wake-ups; batching that buys goodput with latency loses here"},
	{wConnect, "1000 sequential fresh ECDSA initiators per responder, Dial to first echo: hip/hipwire/puzzle/identity/keymat do the work and the responder's table grows, so O(n) timer scans show"},
	{wSim, "RUBiS behind the proxy in the simulator (basic, HIP, SSL at 50 clients): netsim/simtcp/hipsim/tlslite/microhttp/proxy/rubis only; virtual results are the correctness check, host time the metric"},
}

// metricSpec is one row of BENCHMARK.json. Bound is set on end-to-end
// metrics only.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// The benchmark contract wants every end-to-end metric from every
// workload, so they are named after an "operation" each workload
// defines (README.md, "Workloads"): a verified 16 KiB write, a round
// trip, a connect, a simulated request. Every bound is the contract's
// maximum: this host's clock alternates between two speeds a quarter
// apart (README.md, "Noise"), and no tighter bound survives that.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"op_p99_us", "us", "lower", 0.25},
}

const (
	lo = "lower"
	hi = "higher"
)

// realm says which workloads exercise a layer metric; elsewhere the
// layer is idle and the metric reads 0.
type realm int

const (
	everywhere  realm = iota
	udpOnly           // udp_bulk_*, udp_rr, udp_connect
	connectOnly       // udp_connect
	simOnly           // sim_rubis
)

func (r realm) covers(w string) bool {
	switch r {
	case udpOnly:
		return w != wSim
	case connectOnly:
		return w == wConnect
	case simOnly:
		return w == wSim
	}
	return true
}

type layerSpec struct {
	metricSpec
	realm realm
	// mayBeZero marks counts that are 0 on a healthy run (drops, errors,
	// retransmissions), so the tests do not demand a value.
	mayBeZero bool
}

var perLayer = buildPerLayer()

func buildPerLayer() []layerSpec {
	var out []layerSpec
	add := func(r realm, unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, layerSpec{metricSpec: metricSpec{Name: n, Unit: unit, Better: better}, realm: r})
		}
	}
	zero := func(r realm, unit string, names ...string) {
		for _, n := range names {
			out = append(out, layerSpec{metricSpec: metricSpec{Name: n, Unit: unit, Better: lo}, realm: r, mayBeZero: true})
		}
	}
	add(everywhere, "ratio", hi, "bench.trace_overhead_ratio")

	// hipudp: counters from Stack.Stats and timings of the harness's own
	// calls. A "pkt" is a datagram either stack wrote (data and ACKs).
	add(udpOnly, "Mbit/s", hi, "hipudp.goodput_mbit_s")
	add(udpOnly, "count", lo, "hipudp.pkts_per_op")
	add(udpOnly, "B", hi, "hipudp.payload_bytes_per_pkt")
	add(udpOnly, "ratio", lo, "hipudp.wire_bytes_per_payload_byte",
		"hipudp.tx_syscalls_per_pkt", "hipudp.rx_syscalls_per_pkt", "hipudp.ack_pkts_per_data_pkt")
	add(udpOnly, "count", hi, "hipudp.tx_pkts_per_batch", "hipudp.rx_pkts_per_batch")
	zero(udpOnly, "count", "hipudp.tx_drops", "hipudp.tx_errors")
	add(udpOnly, "us", lo, "hipudp.write_call_us_p50", "hipudp.write_call_us_p99", "hipudp.read_call_us_p50", "hipudp.op_p999_us")
	add(udpOnly, "ratio", lo, "hipudp.write_time_share")
	add(udpOnly, "ns", lo, "hipudp.wall_ns_per_pkt", "hipudp.cpu_ns_per_pkt", "hipudp.cpu_ns_per_byte", "hipudp.residual_ns_per_pkt")
	add(udpOnly, "ratio", lo, "hipudp.residual_share")
	add(connectOnly, "ratio", lo, "hipudp.connect_lastq_over_firstq")
	add(connectOnly, "ms", lo, "hipudp.dial_minus_bex_ms", "hipudp.stack_open_close_ms")

	// socket: the kernel's share, from getrusage, and a plain-UDP floor.
	add(udpOnly, "ns", lo, "socket.sys_cpu_ns_per_pkt", "socket.user_cpu_ns_per_pkt", "socket.raw_udp_ns_per_pkt")
	add(udpOnly, "count", lo, "socket.ctx_switches_per_pkt")
	add(udpOnly, "us", lo, "socket.raw_udp_rtt_p50_us")

	// runtime: the Go scheduler, allocator and locks, from runtime/metrics.
	// On sim_rubis a "pkt" is a packet a netsim node transmitted.
	add(everywhere, "count", lo, "runtime.allocs_per_pkt", "runtime.allocs_per_op")
	add(everywhere, "B", lo, "runtime.alloc_bytes_per_pkt")
	zero(everywhere, "ns", "runtime.mutex_wait_ns_per_pkt") // no contention, no wait
	zero(everywhere, "ratio", "runtime.gc_cpu_share")       // a short round may see no GC cycle
	add(everywhere, "us", lo, "runtime.sched_latency_p99_us")
	add(everywhere, "MiB", lo, "runtime.rss_peak_mib")

	// esp: the run's packets replayed through fresh SAs.
	add(udpOnly, "ns", lo, "esp.seal_ns_per_pkt", "esp.open_ns_per_pkt",
		"esp.seal_batch32_ns_per_pkt", "esp.open_batch32_ns_per_pkt", "esp.seal_ns_64b")
	add(udpOnly, "ratio", lo, "esp.crypto_share")
	add(udpOnly, "B", lo, "esp.overhead_bytes_per_pkt")
	for _, s := range suiteTable {
		add(everywhere, "GB/s", hi, "esp.seal_gb_s."+s.String(), "esp.open_gb_s."+s.String())
	}

	// stream: two sans-io conns joined in memory, same bytes and writes.
	add(udpOnly, "ns", lo, "stream.ns_per_pkt", "stream.marshal_parse_ns_per_seg")
	add(udpOnly, "ratio", lo, "stream.share", "stream.acks_per_data_seg")
	add(udpOnly, "count", lo, "stream.segs_per_mib")

	// hip and the packages under it: sans-io base exchanges.
	add(udpOnly, "ms", lo, "hip.bex_cpu_ms", "hip.bex_initiator_ms", "hip.bex_responder_ms")
	add(udpOnly, "B", lo, "hip.bex_wire_bytes")
	add(connectOnly, "ratio", lo, "hip.bex_share")
	add(udpOnly, "ns", lo, "hip.ontimer_ns_per_assoc", "hip.seal_data_ns_per_pkt")
	zero(simOnly, "count", "hip.retransmits_sim")
	add(udpOnly, "ns", lo, "hipwire.parse_ns_per_bex", "hipwire.marshal_ns_per_bex", "puzzle.verify_ns")
	add(udpOnly, "ms", lo, "puzzle.solve_ms_mean")
	add(udpOnly, "count", lo, "puzzle.solve_attempts_mean")
	add(udpOnly, "us", lo, "identity.sign_us", "identity.verify_us", "keymat.derive_us")

	// The simulator path, per scenario.
	for _, k := range []string{"basic", "hip", "ssl"} {
		add(simOnly, "count", lo, "netsim.events_"+k, "netsim.pkts_per_req_"+k)
		add(simOnly, "ns", lo, "netsim.host_ns_per_event_"+k)
		add(simOnly, "s", lo, "netsim.host_s_"+k)
		add(simOnly, "B", lo, "netsim.bytes_per_req_"+k)
		add(simOnly, "1/s", hi, "rubis.virt_req_s_"+k)
		for _, tier := range []string{"lb", "web", "db"} {
			add(simOnly, "ratio", lo, "cloud.virt_cpu_util_"+tier+"_"+k)
		}
	}
	add(simOnly, "ms", lo, "rubis.virt_rt_ms_hip")
	add(simOnly, "ns", lo, "netsim.dense_event_ns",
		"simtcp.plain_transfer_host_ns_per_pkt", "hipsim.transfer_host_ns_per_pkt")
	zero(simOnly, "count", "hipsim.ctl_shed", "proxy.errors")
	add(simOnly, "count", hi, "proxy.served")
	add(simOnly, "ms", lo, "proxy.virt_latency_ms_p50")
	add(simOnly, "ns", lo, "rubis.execute_host_ns", "microhttp.read_request_ns", "microhttp.read_response_ns",
		"tlslite.record_write_ns_1400", "tlslite.record_read_ns_1400")
	add(simOnly, "us", lo, "rubis.virt_cost_us_mean")
	add(simOnly, "B", lo, "rubis.page_bytes_mean")
	add(simOnly, "ms", lo, "tlslite.handshake_host_ms")
	return out
}

// suiteTable is the five suites BENCH_DATAPLANE.json tracks.
var suiteTable = []keymat.Suite{
	keymat.SuiteAESCTRSHA256,
	keymat.SuiteAESCBCSHA256,
	keymat.SuiteAESGCM128,
	keymat.SuiteAESGCM256,
	keymat.SuiteChaCha20Poly1305,
}

// runSeconds is what BENCHMARK.json asks the driver to pass in --seconds.
const runSeconds = 20

// benchmarkJSON renders BENCHMARK.json from the tables above; the test
// suite checks the committed file against it.
func benchmarkJSON() []byte {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []e2e          `json:"end_to_end"`
		PerLayer   []layer        `json:"per_layer"`
	}{
		Command:    []string{"sh", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs,
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // only strings and numbers above
	}
	return append(b, '\n')
}

// metrics is what one run reports: name -> value.
type metrics map[string]float64

func (m metrics) sortedNames() []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
