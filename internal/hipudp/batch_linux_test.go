//go:build linux && (amd64 || arm64)

package hipudp

import (
	"bytes"
	"net/netip"
	"reflect"
	"syscall"
	"testing"
	"time"
)

// TestGSOFallbackSendsTheSameDatagrams sends segmentBatch three ways: with
// GSO, through an engine already in its fallback state, and through an
// engine whose socket makes the kernel refuse UDP_SEGMENT (SO_NO_CHECK: a
// socket that sends no UDP checksum cannot be segmented). All three must
// deliver the same datagrams with the same TxPackets and TxErrors, and the
// refusal must turn the engine's GSO off for good.
func TestGSOFallbackSendsTheSameDatagrams(t *testing.T) {
	type result struct {
		datagrams           [][]byte
		txPackets, txErrors uint64
	}
	run := func(eng *txEngine, refuse bool) (result, Stats) {
		s := newTestStack(t, idA)
		sink, ep := newTestSocket(t)
		if refuse {
			var serr error
			if err := s.rc.Control(func(fd uintptr) {
				serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_NO_CHECK, 1)
			}); err != nil || serr != nil {
				t.Fatalf("SO_NO_CHECK: %v %v", err, serr)
			}
		}
		got, st := transmitTo(t, s, eng, sink, segmentBatch(ep))
		return result{got, st.TxPackets, st.TxErrors}, st
	}
	gso, gsoSt := run(newTxEngine(), false)
	if gsoSt.TxSyscalls != 1 {
		t.Errorf("GSO send took %d syscalls, want 1 (one sendmmsg of one UDP_SEGMENT message)", gsoSt.TxSyscalls)
	}
	off := newTxEngine()
	off.noGSO = true
	fallback, fallbackSt := run(off, false)
	refusing := newTxEngine()
	refused, _ := run(refusing, true)
	if !refusing.noGSO {
		t.Error("the kernel refused UDP_SEGMENT and the engine kept GSO on")
	}
	if fallbackSt.TxSyscalls != 1 {
		t.Errorf("fallback send took %d syscalls, want 1 (one sendmmsg of one message per frame)", fallbackSt.TxSyscalls)
	}
	if len(gso.datagrams) != 20 || gso.txErrors != 0 {
		t.Fatalf("GSO engine: %d datagrams, TxErrors %d; want 20 and 0", len(gso.datagrams), gso.txErrors)
	}
	for name, r := range map[string]result{"fallback": fallback, "refused": refused} {
		if !reflect.DeepEqual(r, gso) {
			t.Errorf("%s engine: %d datagrams, TxPackets %d, TxErrors %d; GSO engine: %d, %d, %d",
				name, len(r.datagrams), r.txPackets, r.txErrors, len(gso.datagrams), gso.txPackets, gso.txErrors)
		}
	}
}

// TestGRODeliversTheRunWhole reads a UDP_SEGMENT run on a socket whose rx
// engine turned UDP_GRO on: one datagram, with the run's segment size, that
// appendSegments splits back into the frames sent.
func TestGRODeliversTheRunWhole(t *testing.T) {
	s := newTestStack(t, idA)
	sink, ep := newTestSocket(t)
	rc, err := sink.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	eng := newRxEngine(rc)
	batch := segmentBatch(ep)
	want := frameBytes(batch)
	s.transmit(newTxEngine(), batch)
	bufs := [][]byte{make([]byte, 64*1024)}
	sizes, segs, eps := make([]int, 1), make([]int, 1), make([]netip.AddrPort, 1)
	sink.SetReadDeadline(time.Now().Add(5 * time.Second))
	cnt, _, err := eng.read(sink, rc, bufs, sizes, segs, eps)
	if err != nil || cnt != 1 {
		t.Fatalf("read = %d datagrams, %v", cnt, err)
	}
	if segs[0] != len(want[0]) || eps[0] != s.LocalAddr().AddrPort() {
		t.Fatalf("datagram of %d bytes from %v: segment size %d, want %d from %v",
			sizes[0], eps[0], segs[0], len(want[0]), s.LocalAddr().AddrPort())
	}
	frames, _ := appendSegments(nil, nil, bufs[0][:sizes[0]], segs[0], eps[0])
	if len(frames) != len(want) {
		t.Fatalf("split into %d frames, want %d", len(frames), len(want))
	}
	for i, w := range want {
		if !bytes.Equal(frames[i], w) {
			t.Fatalf("frame %d: %d bytes, want %d", i, len(frames[i]), len(w))
		}
	}
}
