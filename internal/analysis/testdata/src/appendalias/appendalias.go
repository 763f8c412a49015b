// Package appendalias is a hiplint fixture: append-style crypto calls
// whose destination aliases their source.
package appendalias

import (
	"net/netip"

	"hipcloud/internal/esp"
	"hipcloud/internal/hip"
	"hipcloud/internal/stream"
)

func aliasedSeal(sa *esp.OutboundSA, b []byte) {
	sa.SealAppend(b[:0], b[4:]) // want "may share a backing array"
}

func aliasedOpen(sa *esp.InboundSA, pkt []byte) {
	sa.OpenAppend(pkt[:0], pkt) // want "may share a backing array"
}

func aliasedSealData(h *hip.Host, hit netip.Addr, b []byte, n int) {
	h.SealDataAppend(b[:0], hit, b[n:], false) // want "may share a backing array"
}

func distinctSealDataOK(h *hip.Host, hit netip.Addr, frame, plain []byte) {
	h.SealDataAppend(frame, hit, plain, false)
}

func distinctOK(sa *esp.OutboundSA, b []byte) {
	dst := make([]byte, 0, 256)
	out, _ := sa.SealAppend(dst, b)
	_ = out
}

func nilDstOK(sa *esp.OutboundSA, b []byte) {
	out, _ := sa.SealAppend(nil, b)
	_ = out
}

func marshalAliased(s stream.Segment) {
	s.MarshalInto(s.Payload) // want "alias the segment payload"
}

func marshalOK(s stream.Segment, wire []byte) {
	s.MarshalInto(wire)
}
