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

func aliasedSealHdrHeader(sa *esp.OutboundSA, b, payload []byte) {
	sa.SealHdrAppend(b[:0], b[8:16], payload) // want "may share a backing array"
}

func aliasedSealHdrPayload(sa *esp.OutboundSA, b, hdr []byte) {
	sa.SealHdrAppend(b[:0], hdr, b[16:]) // want "may share a backing array"
}

func distinctSealHdrOK(sa *esp.OutboundSA, frame, payload []byte) {
	var hdr [19]byte
	sa.SealHdrAppend(frame, hdr[:], payload)
}

func aliasedSealDataHdrHeader(h *hip.Host, hit netip.Addr, b, payload []byte) {
	h.SealDataHdrAppend(b[:1], hit, b[1:20], payload, false) // want "may share a backing array"
}

func aliasedSealDataHdrPayload(h *hip.Host, hit netip.Addr, b, hdr []byte, n int) {
	h.SealDataHdrAppend(b[:1], hit, hdr, b[n:], false) // want "may share a backing array"
}

func distinctSealDataHdrOK(h *hip.Host, hit netip.Addr, frame, payload []byte) {
	var hdr [19]byte
	h.SealDataHdrAppend(frame[:1], hit, hdr[:], payload, false)
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
