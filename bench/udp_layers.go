package main

import (
	"fmt"

	"hipcloud/internal/esp"
	"hipcloud/internal/hipudp"
	"hipcloud/internal/keymat"
)

// processLayers fills the runtime.* metrics from the traced rounds'
// process deltas. A "pkt" is whatever the workload's network layer
// counts as one: a datagram on the UDP workloads, a netsim packet on
// sim_rubis.
func processLayers(m metrics, traced []roundResult) {
	pkts := sum(traced, func(r roundResult) float64 { return float64(r.pkts) })
	ops := sum(traced, func(r roundResult) float64 { return float64(r.ops) })
	allocs := sum(traced, func(r roundResult) float64 { return float64(r.proc.allocs) })
	m["runtime.allocs_per_pkt"] = ratio(allocs, pkts)
	m["runtime.allocs_per_op"] = ratio(allocs, ops)
	m["runtime.alloc_bytes_per_pkt"] = ratio(sum(traced, func(r roundResult) float64 { return float64(r.proc.allocBytes) }), pkts)
	m["runtime.mutex_wait_ns_per_pkt"] = ratio(sum(traced, func(r roundResult) float64 { return float64(r.proc.mutexWait.Nanoseconds()) }), pkts)
	m["runtime.gc_cpu_share"] = medianOf(traced, func(r roundResult) float64 { return r.proc.gcCPUShare })
	m["runtime.sched_latency_p99_us"] = medianOf(traced, func(r roundResult) float64 { return us(r.proc.schedP99) })
	m["runtime.rss_peak_mib"] = float64(snapProc().maxRSSKiB) / 1024
}

// udpShape is the traffic a UDP workload puts through the layers under
// hipudp; the replay probes are sized from it.
type udpShape struct {
	suite     keymat.Suite
	writeSize int  // bytes per Conn.Write
	echo      bool // each write is answered by one of the same size
}

// udpLayers fills the hipudp, socket, esp, stream and hip metrics from
// the traced rounds' counters and from replay probes, and splits the
// CPU per packet between them:
//
//	hipudp.cpu_ns_per_pkt = socket.sys_cpu_ns_per_pkt + esp.seal_ns_per_pkt
//	  + esp.open_ns_per_pkt + stream.ns_per_pkt + hipudp.residual_ns_per_pkt
//
// The residual is driver plumbing, copies, locks and scheduling; were it
// negative, the probes would exceed the total and the harness be wrong.
func udpLayers(m metrics, seed int64, shape udpShape, traced []roundResult, sc scale, tr *tracer) error {
	var a, b hipudp.Stats // both sides' counters over all traced rounds
	for _, r := range traced {
		a, b = addStats(a, r.udp.a), addStats(b, r.udp.b)
	}
	txA, txB := float64(a.TxPackets), float64(b.TxPackets)
	pkts := txA + txB
	if pkts == 0 {
		return fmt.Errorf("traced rounds sent no packets")
	}
	bytesA, bytesB := float64(a.TxBytes), float64(b.TxBytes)
	rxPkts := float64(a.RxPackets + b.RxPackets)
	payload := sum(traced, func(r roundResult) float64 { return float64(r.payload) })
	ops := sum(traced, func(r roundResult) float64 { return float64(r.ops) })
	wall := sum(traced, func(r roundResult) float64 { return float64(r.wall.Nanoseconds()) })
	user := sum(traced, func(r roundResult) float64 { return float64(r.proc.user.Nanoseconds()) })
	sys := sum(traced, func(r roundResult) float64 { return float64(r.proc.sys.Nanoseconds()) })

	m["hipudp.goodput_mbit_s"] = payload * 8 / (wall / 1e9) / 1e6
	m["hipudp.pkts_per_op"] = pkts / ops
	m["hipudp.payload_bytes_per_pkt"] = payload / pkts
	m["hipudp.wire_bytes_per_payload_byte"] = (bytesA + bytesB) / payload
	m["hipudp.tx_syscalls_per_pkt"] = float64(a.TxSyscalls+b.TxSyscalls) / pkts
	m["hipudp.rx_syscalls_per_pkt"] = ratio(float64(a.RxSyscalls+b.RxSyscalls), rxPkts)
	m["hipudp.tx_pkts_per_batch"] = ratio(pkts, float64(a.TxBatches+b.TxBatches))
	m["hipudp.rx_pkts_per_batch"] = ratio(rxPkts, float64(a.RxBatches+b.RxBatches))
	// The listening side sends the ACKs on the one-way workloads; on the
	// others both sides carry data and the ratio is near 1.
	m["hipudp.ack_pkts_per_data_pkt"] = ratio(txB, txA)
	m["hipudp.tx_drops"] = float64(a.TxDrops + b.TxDrops)
	m["hipudp.tx_errors"] = float64(a.TxErrors + b.TxErrors)

	var writes, reads, lat []float64
	for _, r := range traced {
		writes = append(writes, r.calls.write...)
		reads = append(reads, r.calls.read...)
		lat = append(lat, r.lat...)
	}
	m["hipudp.write_call_us_p50"] = percentile(writes, 50)
	m["hipudp.write_call_us_p99"] = percentile(writes, 99)
	m["hipudp.read_call_us_p50"] = percentile(reads, 50)
	m["hipudp.op_p999_us"] = percentile(lat, 99.9)
	writeNs := 0.0
	for _, w := range writes {
		writeNs += w * 1e3
	}
	m["hipudp.write_time_share"] = writeNs / wall
	m["hipudp.wall_ns_per_pkt"] = wall / pkts
	cpuPerPkt := (user + sys) / pkts
	m["hipudp.cpu_ns_per_pkt"] = cpuPerPkt
	m["hipudp.cpu_ns_per_byte"] = (user + sys) / payload
	m["socket.sys_cpu_ns_per_pkt"] = sys / pkts
	m["socket.user_cpu_ns_per_pkt"] = user / pkts
	m["socket.ctx_switches_per_pkt"] = sum(traced, func(r roundResult) float64 { return float64(r.proc.ctxSwitches) }) / pkts

	// esp: what each side sealed is what the other opened, so replay the
	// two directions at their own mean sizes and weight by packet count.
	sp := tr.begin("probe esp", open{})
	overhead := esp.Overhead(shape.suite)
	m["esp.overhead_bytes_per_pkt"] = float64(overhead)
	plainLen := func(wireBytes, n float64) int { // one frame-type byte, then ESP
		if l := int(ratio(wireBytes, n)) - 1 - overhead; l > 1 {
			return l
		}
		return 1
	}
	sizeA, sizeB := plainLen(bytesA, txA), plainLen(bytesB, txB)
	ca := espProbe(shape.suite, sizeA, sc.probe/4)
	cb := espProbe(shape.suite, sizeB, sc.probe/4)
	mix := func(a, b float64) float64 { return (a*txA + b*txB) / pkts }
	seal, opn := mix(ca.seal, cb.seal), mix(ca.open, cb.open)
	m["esp.seal_ns_per_pkt"] = seal
	m["esp.open_ns_per_pkt"] = opn
	m["esp.seal_batch32_ns_per_pkt"] = mix(ca.sealBatch, cb.sealBatch)
	m["esp.open_batch32_ns_per_pkt"] = mix(ca.openBatch, cb.openBatch)
	m["esp.crypto_share"] = (seal + opn) / cpuPerPkt
	m["esp.seal_ns_64b"] = espProbe(shape.suite, echoLen, sc.probe/4).seal
	sp.end()

	sp = tr.begin("probe stream", open{})
	st := streamProbe(shape.writeSize, shape.echo, sc.probe)
	sp.end()
	m["stream.ns_per_pkt"] = st.nsPerPkt
	m["stream.share"] = st.nsPerPkt / cpuPerPkt
	m["stream.segs_per_mib"] = float64(st.dataSegs) / (float64(st.bytes) / (1 << 20))
	m["stream.acks_per_data_seg"] = float64(st.acks) / float64(st.dataSegs)
	m["stream.marshal_parse_ns_per_seg"] = st.marshalParseNs

	residual := cpuPerPkt - sys/pkts - seal - opn - st.nsPerPkt
	m["hipudp.residual_ns_per_pkt"] = residual
	m["hipudp.residual_share"] = residual / cpuPerPkt

	sp = tr.begin("probe raw udp", open{})
	raw, err := rawUDPProbe(plainLen(bytesA, txA)+overhead+1, sc.probe)
	sp.end()
	if err != nil {
		return err
	}
	m["socket.raw_udp_ns_per_pkt"] = raw.cpuNsPerPkt
	m["socket.raw_udp_rtt_p50_us"] = raw.rttP50Us

	sp = tr.begin("probe hip", open{})
	hipProbes(m, seed, shape.suite, sizeA, sc)
	sp.end()
	sp = tr.begin("probe esp suites", open{})
	suiteThroughput(m, sc.probe/4)
	sp.end()
	return nil
}

func (w *bulkWorkload) layers(m metrics, seed int64, traced []roundResult, tr *tracer) error {
	return udpLayers(m, seed, udpShape{suite: w.suite, writeSize: bulkChunk}, traced, w.sc, tr)
}

func (w *rrWorkload) layers(m metrics, seed int64, traced []roundResult, tr *tracer) error {
	return udpLayers(m, seed, udpShape{suite: keymat.SuiteAESGCM128, writeSize: echoLen, echo: true}, traced, w.sc, tr)
}

// layers adds what only udp_connect has: how much slower the last
// quarter of a round's connects is than the first (the responder's
// table is four times fuller), what Dial costs beyond the sans-io base
// exchange, and what opening and closing an initiator's stack costs.
func (w *connectWorkload) layers(m metrics, seed int64, traced []roundResult, tr *tracer) error {
	if err := udpLayers(m, seed, udpShape{suite: keymat.SuiteAESGCM128, writeSize: echoLen, echo: true}, traced, w.sc, tr); err != nil {
		return err
	}
	var firstq, lastq, dials, openClose []float64
	for _, r := range traced {
		q := len(r.lat) / 4
		if q == 0 {
			continue
		}
		firstq = append(firstq, median(r.lat[:q]))
		lastq = append(lastq, median(r.lat[len(r.lat)-q:]))
		dials = append(dials, r.calls.dial...)
		for i := range r.calls.open {
			openClose = append(openClose, r.calls.open[i]+r.calls.close[i])
		}
	}
	m["hipudp.connect_lastq_over_firstq"] = ratio(median(lastq), median(firstq))
	m["hipudp.dial_minus_bex_ms"] = median(dials)/1e3 - m["hip.bex_cpu_ms"]
	m["hipudp.stack_open_close_ms"] = median(openClose) / 1e3
	cpuMsPerOp := sum(traced, func(r roundResult) float64 { return r.proc.cpu().Seconds() * 1e3 }) /
		sum(traced, func(r roundResult) float64 { return float64(r.ops) })
	m["hip.bex_share"] = m["hip.bex_cpu_ms"] / cpuMsPerOp
	return nil
}
