// Package stream implements a sans-io reliable byte-stream protocol
// (a compact TCP: three-way handshake, sliding window, cumulative ACKs,
// RTT-estimated retransmission timeout, fast retransmit, FIN teardown).
//
// The core is a pure state machine: segments and clock readings go in,
// segments, timer deadlines and readable/writable transitions come out.
// Drivers bind it to the netsim simulator (hipcloud/internal/netsim) or to
// real datagram transports (ESP-over-UDP in hipcloud/internal/hipudp).
//
// Every payload byte has one owner. Poll lends: the segments it returns,
// and their payloads, are the connection's own memory and the driver
// marshals them onto its wire unit before the next call on that Conn.
// OnSegment borrows: it copies what it keeps, so the driver may recycle
// the inbound wire unit as soon as it returns.
//
// The send and receive buffers each keep one backing array and slide
// their live bytes to its front when the tail fills, so a long transfer
// allocates nothing once they have grown. A segment stays one contiguous
// view of the send buffer.
package stream

import (
	"encoding/binary"
	"errors"
	"time"
)

// Protocol limits and defaults.
const (
	DefaultMSS        = 1400
	DefaultWindow     = 87381 // ≈85.3 KiB, the iperf window used in the paper
	DefaultSendBuf    = 256 * 1024
	DefaultInitialRTO = 200 * time.Millisecond
	MinRTO            = 20 * time.Millisecond
	MaxRTO            = 10 * time.Second
	maxRetries        = 12
)

// State is the connection state.
type State int

// Connection states (a compact subset of TCP's).
const (
	StateClosed State = iota
	StateSynSent
	StateSynRcvd
	StateEstablished
	StateFinWait1
	StateFinWait2
	StateCloseWait
	StateLastAck
	StateReset
)

func (s State) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateSynSent:
		return "syn-sent"
	case StateSynRcvd:
		return "syn-rcvd"
	case StateEstablished:
		return "established"
	case StateFinWait1:
		return "fin-wait-1"
	case StateFinWait2:
		return "fin-wait-2"
	case StateCloseWait:
		return "close-wait"
	case StateLastAck:
		return "last-ack"
	case StateReset:
		return "reset"
	}
	return "state(?)"
}

// Errors reported by stream operations.
var (
	ErrClosed = errors.New("stream: connection closed")
	ErrReset  = errors.New("stream: connection reset")
	ErrEOF    = errors.New("stream: end of stream")
)

// Config tunes a connection.
type Config struct {
	MSS     int
	Window  int // receive window advertised to the peer
	SendBuf int // local send buffer bound
}

func (c *Config) fill() {
	if c.MSS <= 0 {
		c.MSS = DefaultMSS
	}
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.SendBuf <= 0 {
		c.SendBuf = DefaultSendBuf
	}
}

// Conn is a sans-io reliable stream connection. It is not safe for
// concurrent use; drivers serialize access.
type Conn struct {
	cfg   Config
	state State

	// Send side.
	sndISS uint32
	sndUna uint32 // oldest unacknowledged
	sndNxt uint32 // next sequence to send
	// sndBuf holds the unsent+unacked bytes, starting at sndUna, as the
	// tail of sndArr: an ACK advances the start and Write appends. When
	// the tail is full, Write slides the live bytes to sndArr's front
	// (slideAppend), over bytes already acknowledged. Segments are views
	// of sndBuf: lent ones expire at the next call on the conn, but a
	// retransmission that OnTimer or fast retransmit queued in out is read
	// at the next Poll and may have been acknowledged meanwhile, so while
	// out holds a payload Write does not slide; it moves to a fresh array
	// and the old one stays intact under the view.
	sndBuf, sndArr []byte
	peerWnd        uint32
	// Congestion control (Reno-style slow start + AIMD).
	cwnd        int
	ssthresh    int
	finQueued   bool
	finSent     bool
	finSeq      uint32
	retries     int
	rtoDeadline time.Duration // zero when no timer armed
	rto         time.Duration
	srtt        time.Duration
	rttvar      time.Duration
	rttSeq      uint32 // sequence being timed
	rttStart    time.Duration
	rttTiming   bool
	dupAcks     int

	// Receive side.
	rcvISS    uint32
	rcvNxt    uint32
	rcvBuf    []byte // received, unread bytes: the tail of rcvArr
	rcvArr    []byte
	oooSegs   []Segment // out-of-order segments awaiting the gap fill
	peerFin   bool
	finRcvSeq uint32

	// advertised is the receive window in the most recent outgoing
	// segment, for window-update suppression.
	advertised uint32

	// Output queue drained by Poll, and the slice Poll lent last time,
	// which becomes the queue again at the next Poll.
	out, lent []Segment

	// Stats.
	Retransmits     uint64
	FastRetransmits uint64
	BytesSent       uint64
	BytesRcvd       uint64
}

// Segment flag bits.
const (
	FlagSYN = 1 << iota
	FlagACK
	FlagFIN
	FlagRST
)

// Segment is one protocol datagram. Payload is a view: of the sender's
// send buffer in a segment from Poll, of the wire unit in one from
// ParseSegment.
type Segment struct {
	Flags   uint8
	Seq     uint32
	Ack     uint32
	Window  uint32
	Payload []byte
}

// HeaderSize is the marshaled segment header length in bytes.
const HeaderSize = 14

// Marshal encodes the segment.
func (s Segment) Marshal() []byte {
	b := make([]byte, HeaderSize+len(s.Payload))
	s.MarshalInto(b)
	return b
}

// MarshalInto encodes the segment into b, which must be at least
// HeaderSize+len(s.Payload) bytes; drivers use it to build wire units in
// pooled buffers without the intermediate Marshal allocation.
func (s Segment) MarshalInto(b []byte) {
	b[0] = s.Flags
	b[1] = 0
	binary.BigEndian.PutUint32(b[2:], s.Seq)
	binary.BigEndian.PutUint32(b[6:], s.Ack)
	binary.BigEndian.PutUint32(b[10:], s.Window)
	copy(b[HeaderSize:], s.Payload)
}

// ParseSegment decodes a segment; it errors on short input.
func ParseSegment(b []byte) (Segment, error) {
	if len(b) < HeaderSize {
		return Segment{}, errors.New("stream: short segment")
	}
	return Segment{
		Flags:   b[0],
		Seq:     binary.BigEndian.Uint32(b[2:]),
		Ack:     binary.BigEndian.Uint32(b[6:]),
		Window:  binary.BigEndian.Uint32(b[10:]),
		Payload: b[HeaderSize:],
	}, nil
}

// seqLT reports a < b in sequence space.
func seqLT(a, b uint32) bool { return int32(a-b) < 0 }

// seqLE reports a <= b in sequence space.
func seqLE(a, b uint32) bool { return int32(a-b) <= 0 }

// New creates a closed connection with the given config and initial send
// sequence (drivers pick it from their RNG for determinism).
func New(cfg Config, iss uint32) *Conn {
	cfg.fill()
	return &Conn{
		cfg:      cfg,
		state:    StateClosed,
		sndISS:   iss,
		sndUna:   iss,
		sndNxt:   iss,
		peerWnd:  uint32(cfg.Window),
		rto:      DefaultInitialRTO,
		cwnd:     10 * cfg.MSS, // RFC 6928 initial window
		ssthresh: cfg.Window,
	}
}

// Cwnd reports the current congestion window in bytes.
func (c *Conn) Cwnd() int { return c.cwnd }

// State returns the connection state.
func (c *Conn) State() State { return c.state }

// Open performs an active open: the SYN is queued for Poll.
func (c *Conn) Open(now time.Duration) {
	if c.state != StateClosed {
		return
	}
	c.state = StateSynSent
	c.emit(Segment{Flags: FlagSYN, Seq: c.sndNxt, Window: uint32(c.cfg.Window)})
	c.sndNxt++ // SYN consumes one sequence number
	c.armRTO(now)
}

// Established reports whether the handshake completed.
func (c *Conn) Established() bool {
	return c.state == StateEstablished || c.state == StateFinWait1 ||
		c.state == StateFinWait2 || c.state == StateCloseWait || c.state == StateLastAck
}

// Readable reports whether Read would make progress (data buffered or EOF
// or reset pending).
func (c *Conn) Readable() bool {
	return len(c.rcvBuf) > 0 || (c.peerFin && c.rcvNxt == c.finRcvSeq+1) || c.state == StateReset
}

// Writable reports whether Write can accept at least one byte.
func (c *Conn) Writable() bool {
	if c.state == StateReset || c.finQueued {
		return false
	}
	return len(c.sndBuf) < c.cfg.SendBuf
}

// Write appends data to the send buffer, returning how much was accepted.
func (c *Conn) Write(b []byte) (int, error) {
	switch {
	case c.state == StateReset:
		return 0, ErrReset
	case c.finQueued || c.state == StateClosed:
		return 0, ErrClosed
	}
	space := c.cfg.SendBuf - len(c.sndBuf)
	if space <= 0 {
		return 0, nil
	}
	if len(b) > space {
		b = b[:space]
	}
	slide := true
	for _, seg := range c.out {
		if len(seg.Payload) > 0 { // a queued retransmission views sndBuf
			slide = false
			break
		}
	}
	c.sndArr, c.sndBuf = slideAppend(c.sndArr, c.sndBuf, b, slide)
	return len(b), nil
}

// slideAppend appends b to buf, the live tail of the backing array arr,
// and returns the array and the live bytes. When the tail has no room,
// the live bytes and b go to arr's front if slide allows and they fit in
// half of it, and to a fresh array twice their size otherwise. A slide
// follows at least cap(arr)/2 appended bytes, so at most one byte moves
// per byte appended, and arr stays within twice the most ever held.
func slideAppend(arr, buf, b []byte, slide bool) ([]byte, []byte) {
	if len(b) > cap(buf)-len(buf) {
		n := len(buf) + len(b)
		if !slide || n > cap(arr)/2 {
			arr = make([]byte, 2*n)
		}
		buf = arr[:copy(arr, buf)]
	}
	return arr, append(buf, b...)
}

// Read consumes buffered received data. When the peer has closed and all
// data is drained it returns ErrEOF.
func (c *Conn) Read(b []byte) (int, error) {
	if len(c.rcvBuf) == 0 {
		if c.state == StateReset {
			return 0, ErrReset
		}
		if c.peerFin && c.rcvNxt == c.finRcvSeq+1 {
			return 0, ErrEOF
		}
		return 0, nil
	}
	n := copy(b, c.rcvBuf)
	c.rcvBuf = c.rcvBuf[n:]
	return n, nil
}

// Close initiates an orderly shutdown. Buffered data is still delivered;
// the FIN goes out after the send buffer drains.
func (c *Conn) Close() {
	switch c.state {
	case StateClosed, StateReset, StateFinWait1, StateFinWait2, StateLastAck:
		return
	}
	c.finQueued = true
}

// Abort sends RST and drops all state.
func (c *Conn) Abort() {
	if c.state == StateClosed || c.state == StateReset {
		return
	}
	c.emit(Segment{Flags: FlagRST, Seq: c.sndNxt})
	c.state = StateReset
	c.rtoDeadline = 0
}

func (c *Conn) emit(seg Segment) {
	seg.Window = c.rcvWindow()
	c.advertised = seg.Window
	c.out = append(c.out, seg)
}

// MaybeWindowUpdate queues a pure ACK re-advertising the receive window
// when it has reopened substantially since the last advertisement (the
// classic zero-window-update problem: a sender stalled on a full window
// gets no further segments to ACK). Drivers call this after draining
// reads; it reports whether an update was queued (pump afterwards).
func (c *Conn) MaybeWindowUpdate() bool {
	if !c.Established() {
		return false
	}
	w := c.rcvWindow()
	if w <= c.advertised || int(w-c.advertised) < c.cfg.Window/4 {
		return false
	}
	c.emit(Segment{Flags: FlagACK, Seq: c.sndNxt, Ack: c.rcvNxt})
	return true
}

func (c *Conn) rcvWindow() uint32 {
	w := c.cfg.Window - len(c.rcvBuf)
	if w < 0 {
		w = 0
	}
	return uint32(w)
}

func (c *Conn) armRTO(now time.Duration) {
	c.rtoDeadline = now + c.rto
}

// inFlight reports unacknowledged bytes on the wire.
func (c *Conn) inFlight() uint32 { return c.sndNxt - c.sndUna }

// sendWindowRemaining returns how many new payload bytes may be sent:
// the minimum of the peer's advertised window, the configured window and
// the congestion window, less bytes in flight.
func (c *Conn) sendWindowRemaining() int {
	wnd := c.peerWnd
	if wnd > uint32(c.cfg.Window) {
		wnd = uint32(c.cfg.Window)
	}
	if uint32(c.cwnd) < wnd {
		wnd = uint32(c.cwnd)
	}
	fl := c.inFlight()
	// Exclude the unacked SYN/FIN sequence slots from payload accounting.
	if fl >= wnd {
		return 0
	}
	return int(wnd - fl)
}

// OnSegment processes an inbound segment at time now. It retains nothing
// of seg.Payload: what it keeps, it copies.
func (c *Conn) OnSegment(seg Segment, now time.Duration) {
	if seg.Flags&FlagRST != 0 {
		if c.state != StateClosed {
			c.state = StateReset
			c.rtoDeadline = 0
		}
		return
	}
	switch c.state {
	case StateClosed:
		// Passive open.
		if seg.Flags&FlagSYN != 0 && seg.Flags&FlagACK == 0 {
			c.rcvISS = seg.Seq
			c.rcvNxt = seg.Seq + 1
			c.peerWnd = seg.Window
			c.state = StateSynRcvd
			c.emit(Segment{Flags: FlagSYN | FlagACK, Seq: c.sndNxt, Ack: c.rcvNxt})
			c.sndNxt++
			c.armRTO(now)
		}
		return
	case StateSynSent:
		if seg.Flags&FlagSYN != 0 && seg.Flags&FlagACK != 0 && seg.Ack == c.sndNxt {
			c.rcvISS = seg.Seq
			c.rcvNxt = seg.Seq + 1
			c.peerWnd = seg.Window
			c.sndUna = seg.Ack
			c.state = StateEstablished
			c.rtoDeadline = 0
			c.retries = 0
			c.emit(Segment{Flags: FlagACK, Seq: c.sndNxt, Ack: c.rcvNxt})
		}
		return
	case StateSynRcvd:
		if seg.Flags&FlagACK != 0 && seg.Ack == c.sndNxt {
			c.sndUna = seg.Ack
			c.peerWnd = seg.Window
			c.state = StateEstablished
			c.rtoDeadline = 0
			c.retries = 0
		}
		// A SYN retransmit: re-ack.
		if seg.Flags&FlagSYN != 0 && c.state == StateSynRcvd {
			c.emit(Segment{Flags: FlagSYN | FlagACK, Seq: c.sndNxt - 1, Ack: c.rcvNxt})
			c.armRTO(now)
			return
		}
		if c.state != StateEstablished {
			return
		}
		// Fall through to established processing for piggybacked data.
	}

	// ACK processing.
	if seg.Flags&FlagACK != 0 {
		c.processAck(seg, now)
	}
	// Payload processing.
	if len(seg.Payload) > 0 {
		c.processPayload(seg)
	}
	// FIN processing.
	if seg.Flags&FlagFIN != 0 {
		finSeq := seg.Seq + uint32(len(seg.Payload))
		if !c.peerFin {
			c.peerFin = true
			c.finRcvSeq = finSeq
		}
		if c.rcvNxt == finSeq {
			c.rcvNxt = finSeq + 1
			switch c.state {
			case StateEstablished:
				c.state = StateCloseWait
			case StateFinWait1:
				// Simultaneous close; treat as FIN-WAIT-2 + FIN.
				c.state = StateFinWait2
			case StateFinWait2:
			}
			if c.state == StateFinWait2 {
				c.state = StateClosed
				c.rtoDeadline = 0
			}
		}
		c.emit(Segment{Flags: FlagACK, Seq: c.sndNxt, Ack: c.rcvNxt})
	}
}

func (c *Conn) processAck(seg Segment, now time.Duration) {
	c.peerWnd = seg.Window
	if seqLT(c.sndUna, seg.Ack) && seqLE(seg.Ack, c.sndNxt) {
		acked := seg.Ack - c.sndUna
		// Congestion window growth: exponential below ssthresh (slow
		// start), ~one MSS per RTT above it (congestion avoidance).
		if c.cwnd < c.ssthresh {
			c.cwnd += int(acked)
			if c.cwnd > c.ssthresh {
				c.cwnd = c.ssthresh
			}
		} else {
			c.cwnd += c.cfg.MSS * c.cfg.MSS / c.cwnd
		}
		if c.cwnd > c.cfg.SendBuf {
			c.cwnd = c.cfg.SendBuf
		}
		// The FIN consumes one sequence slot with no buffer byte.
		bufAck := acked
		if c.finSent && seg.Ack == c.finSeq+1 {
			bufAck--
		}
		if int(bufAck) > len(c.sndBuf) {
			bufAck = uint32(len(c.sndBuf))
		}
		c.sndBuf = c.sndBuf[bufAck:]
		c.sndUna = seg.Ack
		c.retries = 0
		c.dupAcks = 0
		// RTT sample if the timed sequence is covered.
		if c.rttTiming && seqLT(c.rttSeq, seg.Ack) {
			c.rttTiming = false
			c.updateRTT(now - c.rttStart)
		}
		if c.sndUna == c.sndNxt {
			c.rtoDeadline = 0 // all data acked
		} else {
			c.armRTO(now)
		}
		// FIN fully acked?
		if c.finSent && seg.Ack == c.finSeq+1 {
			switch c.state {
			case StateFinWait1:
				c.state = StateFinWait2
				if c.peerFin && c.rcvNxt == c.finRcvSeq+1 {
					c.state = StateClosed
					c.rtoDeadline = 0
				}
			case StateLastAck:
				c.state = StateClosed
				c.rtoDeadline = 0
			}
		}
	} else if seg.Ack == c.sndUna && c.inFlight() > 0 && len(seg.Payload) == 0 {
		c.dupAcks++
		if c.dupAcks == 3 {
			c.FastRetransmits++
			// Multiplicative decrease (fast recovery, simplified).
			c.ssthresh = int(c.inFlight()) / 2
			if c.ssthresh < 2*c.cfg.MSS {
				c.ssthresh = 2 * c.cfg.MSS
			}
			c.cwnd = c.ssthresh
			c.retransmit(now)
		}
	}
}

func (c *Conn) processPayload(seg Segment) {
	end := seg.Seq + uint32(len(seg.Payload))
	switch {
	case seqLE(end, c.rcvNxt):
		// Entirely old: re-ack.
		c.emit(Segment{Flags: FlagACK, Seq: c.sndNxt, Ack: c.rcvNxt})
		return
	case seqLT(c.rcvNxt, seg.Seq):
		// Future data: buffer out of order (bounded) and dup-ack.
		if len(c.oooSegs) < 256 {
			// The one copy on this path: the driver recycles the wire
			// unit seg.Payload points into.
			cp := seg
			cp.Payload = make([]byte, len(seg.Payload))
			copy(cp.Payload, seg.Payload)
			c.oooSegs = append(c.oooSegs, cp)
		}
		c.emit(Segment{Flags: FlagACK, Seq: c.sndNxt, Ack: c.rcvNxt})
		return
	}
	// Overlapping or exact: take the new part.
	skip := c.rcvNxt - seg.Seq
	data := seg.Payload[skip:]
	room := c.cfg.Window - len(c.rcvBuf)
	if len(data) > room {
		data = data[:room]
	}
	c.rcvArr, c.rcvBuf = slideAppend(c.rcvArr, c.rcvBuf, data, true)
	c.rcvNxt += uint32(len(data))
	c.BytesRcvd += uint64(len(data))
	// Drain any out-of-order segments that are now contiguous.
	progress := true
	for progress {
		progress = false
		for i := 0; i < len(c.oooSegs); i++ {
			o := c.oooSegs[i]
			oEnd := o.Seq + uint32(len(o.Payload))
			if seqLE(oEnd, c.rcvNxt) {
				c.oooSegs = append(c.oooSegs[:i], c.oooSegs[i+1:]...)
				progress = true
				break
			}
			if seqLE(o.Seq, c.rcvNxt) && seqLT(c.rcvNxt, oEnd) {
				d := o.Payload[c.rcvNxt-o.Seq:]
				room := c.cfg.Window - len(c.rcvBuf)
				if len(d) > room {
					d = d[:room]
				}
				c.rcvArr, c.rcvBuf = slideAppend(c.rcvArr, c.rcvBuf, d, true)
				c.rcvNxt += uint32(len(d))
				c.BytesRcvd += uint64(len(d))
				c.oooSegs = append(c.oooSegs[:i], c.oooSegs[i+1:]...)
				progress = true
				break
			}
		}
	}
	c.emit(Segment{Flags: FlagACK, Seq: c.sndNxt, Ack: c.rcvNxt})
}

func (c *Conn) updateRTT(sample time.Duration) {
	if sample <= 0 {
		sample = time.Microsecond
	}
	if c.srtt == 0 {
		c.srtt = sample
		c.rttvar = sample / 2
	} else {
		d := c.srtt - sample
		if d < 0 {
			d = -d
		}
		c.rttvar = (3*c.rttvar + d) / 4
		c.srtt = (7*c.srtt + sample) / 8
	}
	c.rto = c.srtt + 4*c.rttvar
	if c.rto < MinRTO {
		c.rto = MinRTO
	}
	if c.rto > MaxRTO {
		c.rto = MaxRTO
	}
}

// SRTT returns the smoothed RTT estimate (zero before the first sample).
func (c *Conn) SRTT() time.Duration { return c.srtt }

// OnTimer must be called by the driver when the deadline from Poll expires.
func (c *Conn) OnTimer(now time.Duration) {
	if c.rtoDeadline == 0 || now < c.rtoDeadline {
		return
	}
	c.retries++
	if c.retries > maxRetries {
		c.state = StateReset
		c.rtoDeadline = 0
		return
	}
	c.rto *= 2
	if c.rto > MaxRTO {
		c.rto = MaxRTO
	}
	c.rttTiming = false
	// Timeout: collapse to one segment and halve the threshold.
	c.ssthresh = int(c.inFlight()) / 2
	if c.ssthresh < 2*c.cfg.MSS {
		c.ssthresh = 2 * c.cfg.MSS
	}
	c.cwnd = c.cfg.MSS
	switch c.state {
	case StateSynSent:
		c.emit(Segment{Flags: FlagSYN, Seq: c.sndISS, Window: uint32(c.cfg.Window)})
		c.armRTO(now)
	case StateSynRcvd:
		c.emit(Segment{Flags: FlagSYN | FlagACK, Seq: c.sndNxt - 1, Ack: c.rcvNxt})
		c.armRTO(now)
	default:
		c.Retransmits++
		c.retransmit(now)
	}
}

// retransmit resends the earliest unacknowledged segment.
func (c *Conn) retransmit(now time.Duration) {
	// Karn's algorithm: once any part of the window is retransmitted, an
	// ACK covering the timed sequence may be for either transmission, so
	// the in-flight RTT measurement must be discarded — not just on RTO
	// (OnTimer clears it too) but also on fast retransmit, which reaches
	// here without a timeout. Sampling the ambiguous ACK would feed a
	// wrong RTT into SRTT and collapse or inflate the RTO under loss.
	c.rttTiming = false
	if c.finSent && c.sndUna == c.finSeq {
		c.emit(Segment{Flags: FlagFIN | FlagACK, Seq: c.finSeq, Ack: c.rcvNxt})
		c.armRTO(now)
		return
	}
	n := len(c.sndBuf)
	if n == 0 {
		return
	}
	if n > c.cfg.MSS {
		n = c.cfg.MSS
	}
	unsentStart := int(c.sndNxt - c.sndUna)
	if c.finSent {
		unsentStart-- // FIN slot is not in sndBuf
	}
	if n > unsentStart {
		n = unsentStart
	}
	if n <= 0 {
		return
	}
	c.emit(Segment{Flags: FlagACK, Seq: c.sndUna, Ack: c.rcvNxt, Payload: c.sndBuf[:n]})
	c.armRTO(now)
}

// Poll drains pending output: it first packetizes new send-buffer data
// permitted by the window, then returns queued segments and the next timer
// deadline (zero when no timer is armed).
//
// The segments are lent: the slice and every Payload in it belong to the
// connection and are valid only until the next call on it, so the driver
// marshals each one before then. Two backing slices alternate, so a
// segment queued while the driver still ranges over the lent one (Abort
// on a send error) lands in the other and comes out of the next Poll.
func (c *Conn) Poll(now time.Duration) ([]Segment, time.Duration) {
	if c.Established() && c.state != StateLastAck {
		c.packetize(now)
	}
	out := c.out
	c.out, c.lent = c.lent[:0], out
	return out, c.rtoDeadline
}

// CoalesceACKs drops every pure ACK in segs that the next segment, a pure
// ACK with a later Ack, supersedes, compacts what is left in place and
// returns it. Equal Acks are duplicate ACKs and all stay, since three of
// them make the peer retransmit; SYN, FIN, RST and data segments are never
// dropped. A driver that sends a Poll's segments back to back may apply it
// to them: only the last of a run of cumulative ACKs tells the peer
// anything. It allocates nothing.
func CoalesceACKs(segs []Segment) []Segment {
	out := segs[:0]
	for i, seg := range segs {
		if i+1 < len(segs) && seg.pureACK() && segs[i+1].pureACK() && seqLT(seg.Ack, segs[i+1].Ack) {
			continue
		}
		out = append(out, seg)
	}
	return out
}

// pureACK reports whether the segment is an ACK and nothing else.
func (s Segment) pureACK() bool { return s.Flags == FlagACK && len(s.Payload) == 0 }

func (c *Conn) packetize(now time.Duration) {
	for {
		unsentStart := int(c.sndNxt - c.sndUna)
		if c.finSent {
			break
		}
		avail := len(c.sndBuf) - unsentStart
		if avail <= 0 {
			break
		}
		wnd := c.sendWindowRemaining()
		if wnd <= 0 {
			break
		}
		n := avail
		if n > c.cfg.MSS {
			n = c.cfg.MSS
		}
		if n > wnd {
			n = wnd
		}
		seg := Segment{Flags: FlagACK, Seq: c.sndNxt, Ack: c.rcvNxt, Payload: c.sndBuf[unsentStart : unsentStart+n]}
		if !c.rttTiming {
			c.rttTiming = true
			c.rttSeq = c.sndNxt
			c.rttStart = now
		}
		c.sndNxt += uint32(n)
		c.BytesSent += uint64(n)
		c.emit(seg)
		if c.rtoDeadline == 0 {
			c.armRTO(now)
		}
	}
	// Send FIN once the buffer is fully packetized.
	if c.finQueued && !c.finSent && int(c.sndNxt-c.sndUna) == len(c.sndBuf) {
		c.finSent = true
		c.finSeq = c.sndNxt
		c.emit(Segment{Flags: FlagFIN | FlagACK, Seq: c.sndNxt, Ack: c.rcvNxt})
		c.sndNxt++
		switch c.state {
		case StateEstablished:
			c.state = StateFinWait1
		case StateCloseWait:
			c.state = StateLastAck
		}
		c.armRTO(now)
	}
}
