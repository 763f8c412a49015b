package netsim

// TraceKind classifies trace events.
type TraceKind int

// Trace event kinds.
const (
	TraceTx TraceKind = iota
	TraceRx
	TraceDrop
)

func (k TraceKind) String() string {
	switch k {
	case TraceTx:
		return "tx"
	case TraceRx:
		return "rx"
	case TraceDrop:
		return "drop"
	}
	return "?"
}

// Tracer receives packet-level events; used in tests and debugging.
type Tracer func(at VTime, kind TraceKind, node string, pkt *Packet, note string)

// SetTracer installs a tracer on the simulation (nil disables tracing).
func (s *Sim) SetTracer(t Tracer) { s.tracer = t }

func (n *Network) trace(kind TraceKind, nd *Node, pkt *Packet, note string) {
	if n.sim.tracer != nil {
		n.sim.tracer(n.sim.now, kind, nd.name, pkt, note)
	}
}
