// Package hipwire implements the HIP wire format of RFC 5201/7401: the
// fixed 40-byte HIP header, the ordered TLV parameter list, and typed
// encoders/decoders for the parameters used by the base exchange, mobility
// updates, rendezvous relaying and teardown.
package hipwire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// PacketType identifies a HIP control packet.
type PacketType uint8

// HIP packet types (RFC 5201 §5.3).
const (
	I1       PacketType = 1
	R1       PacketType = 2
	I2       PacketType = 3
	R2       PacketType = 4
	UPDATE   PacketType = 16
	NOTIFY   PacketType = 17
	CLOSE    PacketType = 18
	CLOSEACK PacketType = 19
)

func (t PacketType) String() string {
	switch t {
	case I1:
		return "I1"
	case R1:
		return "R1"
	case I2:
		return "I2"
	case R2:
		return "R2"
	case UPDATE:
		return "UPDATE"
	case NOTIFY:
		return "NOTIFY"
	case CLOSE:
		return "CLOSE"
	case CLOSEACK:
		return "CLOSE_ACK"
	}
	return fmt.Sprintf("HIP(%d)", uint8(t))
}

// Parameter type numbers (RFC 5201/5202/5204/5206 registries).
const (
	ParamESPInfo             uint16 = 65
	ParamR1Counter           uint16 = 128
	ParamLocator             uint16 = 193
	ParamPuzzle              uint16 = 257
	ParamSolution            uint16 = 321
	ParamSeq                 uint16 = 385
	ParamAck                 uint16 = 449
	ParamDiffieHellman       uint16 = 513
	ParamHIPCipher           uint16 = 579
	ParamEncrypted           uint16 = 641
	ParamHostID              uint16 = 705
	ParamEchoRequestSigned   uint16 = 897
	ParamNotification        uint16 = 832
	ParamEchoResponseSigned  uint16 = 961
	ParamESPTransform        uint16 = 4095
	ParamHMAC                uint16 = 61505
	ParamHMAC2               uint16 = 61569
	ParamSignature2          uint16 = 61633
	ParamSignature           uint16 = 61697
	ParamEchoRequestUnsigned uint16 = 63661
	ParamEchoResponseUnsign  uint16 = 63425
	ParamFrom                uint16 = 65498
	ParamRVSHMAC             uint16 = 65500
	ParamViaRVS              uint16 = 65502
)

// HeaderLen is the fixed HIP header size in bytes.
const HeaderLen = 40

// Version is the HIP protocol version emitted (RFC 5201 = 1).
const Version = 1

// MaxPacket bounds accepted packet sizes.
const MaxPacket = 64 * 1024

// Errors returned by parsing.
var (
	ErrShort       = errors.New("hipwire: truncated packet")
	ErrBadVersion  = errors.New("hipwire: unsupported version")
	ErrBadChecksum = errors.New("hipwire: checksum mismatch")
	ErrBadParam    = errors.New("hipwire: malformed parameter")
	ErrParamOrder  = errors.New("hipwire: parameters out of order")
	ErrMissing     = errors.New("hipwire: required parameter missing")
)

// Param is one TLV parameter.
type Param struct {
	Type uint16
	Data []byte
}

// Packet is a HIP control packet.
type Packet struct {
	Type                   PacketType
	Controls               uint16
	SenderHIT, ReceiverHIT netip.Addr
	Params                 []Param
}

// Get returns the first parameter of type t.
func (p *Packet) Get(t uint16) (Param, bool) {
	for _, pr := range p.Params {
		if pr.Type == t {
			return pr, true
		}
	}
	return Param{}, false
}

// GetAll returns every parameter of type t.
func (p *Packet) GetAll(t uint16) []Param {
	var out []Param
	for _, pr := range p.Params {
		if pr.Type == t {
			out = append(out, pr)
		}
	}
	return out
}

// Add inserts a parameter, keeping Params sorted by type (the RFC 5201
// wire order); parameters of equal type keep their insertion order.
// Sorting here instead of at marshal time lets Marshal emit the slice
// directly, with no per-packet snapshot, sort or comparator closure.
func (p *Packet) Add(t uint16, data []byte) {
	i := len(p.Params)
	for i > 0 && p.Params[i-1].Type > t {
		i--
	}
	p.Params = append(p.Params, Param{})
	copy(p.Params[i+1:], p.Params[i:])
	p.Params[i] = Param{Type: t, Data: data}
}

func pad8(n int) int { return (n + 7) &^ 7 }

// Marshal encodes the packet and fills in the checksum. Params are
// already type-sorted — Add maintains the order, and Parse rejects
// out-of-order wire input — so hand-built packets must keep them sorted
// (use Add).
func (p *Packet) Marshal() []byte {
	size := HeaderLen
	for _, pr := range p.Params {
		size += pad8(4 + len(pr.Data))
	}
	b := make([]byte, size)
	b[0] = 59 // next header: IPPROTO_NONE
	b[1] = byte(size/8 - 1)
	b[2] = byte(p.Type) & 0x7f
	b[3] = Version<<4 | 0x1
	binary.BigEndian.PutUint16(b[6:], p.Controls)
	sh := p.SenderHIT.As16()
	rh := p.ReceiverHIT.As16()
	copy(b[8:24], sh[:])
	copy(b[24:40], rh[:])
	off := HeaderLen
	for _, pr := range p.Params {
		binary.BigEndian.PutUint16(b[off:], pr.Type)
		binary.BigEndian.PutUint16(b[off+2:], uint16(len(pr.Data)))
		copy(b[off+4:], pr.Data)
		off += pad8(4 + len(pr.Data))
	}
	cs := checksum(b)
	binary.BigEndian.PutUint16(b[4:], cs)
	return b
}

// Parse decodes and validates a packet (length, version, checksum,
// parameter ordering and bounds).
func Parse(b []byte) (*Packet, error) {
	if len(b) < HeaderLen {
		return nil, ErrShort
	}
	if len(b) > MaxPacket {
		return nil, fmt.Errorf("hipwire: packet exceeds %d bytes", MaxPacket)
	}
	totalLen := (int(b[1]) + 1) * 8
	if totalLen < HeaderLen || totalLen > len(b) {
		return nil, ErrShort
	}
	b = b[:totalLen]
	if b[3]>>4 != Version {
		return nil, ErrBadVersion
	}
	want := binary.BigEndian.Uint16(b[4:])
	// checksum skips the checksum field itself, so the packet is summed
	// in place — no zeroed scratch copy.
	if checksum(b) != want {
		return nil, ErrBadChecksum
	}
	var sh, rh [16]byte
	copy(sh[:], b[8:24])
	copy(rh[:], b[24:40])
	pkt := &Packet{
		Type:        PacketType(b[2] & 0x7f),
		Controls:    binary.BigEndian.Uint16(b[6:]),
		SenderHIT:   netip.AddrFrom16(sh),
		ReceiverHIT: netip.AddrFrom16(rh),
	}
	off := HeaderLen
	lastType := -1
	// One backing array for every parameter body: each Param.Data aliases
	// a capped window of the arena, so parsing costs two allocations
	// (arena + Params slice) regardless of parameter count. The packet
	// owns the arena; a caller retaining a parsed body past the packet's
	// lifetime pins the whole arena and should copy instead.
	arena := make([]byte, totalLen-HeaderLen)
	copy(arena, b[HeaderLen:totalLen])
	pkt.Params = make([]Param, 0, len(arena)/8)
	for off < totalLen {
		if off+4 > totalLen {
			return nil, ErrBadParam
		}
		t := binary.BigEndian.Uint16(b[off:])
		l := int(binary.BigEndian.Uint16(b[off+2:]))
		if off+4+l > totalLen {
			return nil, ErrBadParam
		}
		if int(t) < lastType {
			return nil, ErrParamOrder
		}
		lastType = int(t)
		lo, hi := off+4-HeaderLen, off+4+l-HeaderLen
		pkt.Params = append(pkt.Params, Param{Type: t, Data: arena[lo:hi:hi]})
		off += pad8(4 + l)
	}
	return pkt, nil
}

// checksum is the 16-bit one's-complement internet checksum; the
// checksum field (offset 4) is skipped, so callers sum packets in place.
func checksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		if i == 4 {
			continue // checksum field itself
		}
		sum += uint32(binary.BigEndian.Uint16(b[i:]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// MarshalForAuth encodes the packet including only parameters with type <
// limit, with the checksum zeroed and the length covering the truncated
// parameter set. Used as the input to HMAC (limit=ParamHMAC) and signature
// (limit=ParamSignature) computations.
func (p *Packet) MarshalForAuth(limit uint16) []byte {
	trimmed := &Packet{
		Type: p.Type, Controls: p.Controls,
		SenderHIT: p.SenderHIT, ReceiverHIT: p.ReceiverHIT,
	}
	for _, pr := range p.Params {
		if pr.Type < limit {
			trimmed.Params = append(trimmed.Params, pr)
		}
	}
	b := trimmed.Marshal()
	b[4], b[5] = 0, 0 // checksum excluded from auth input
	return b
}
