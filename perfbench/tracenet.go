package main

import (
	"encoding/binary"
	"fmt"
	"strings"
	"time"

	"repro/internal/transport"
)

// tracedNet is a transport.Network that hands out endpoints timing every
// send and every installed handler of the network it wraps. It forwards
// every optional Endpoint interface the inner endpoints implement
// (StableSender, RefResolver, RefSender, RefBatchSender), so the mux above
// it resolves the same fast paths and the server keeps its batched,
// resolved-destination frame path: a traced run replays the untraced one
// event for event.
//
// The tracer is not synchronized: every workload drives the virtual clock
// from one goroutine, and netsim runs sends and deliveries on it.
type tracedNet struct {
	inner transport.Network
	tr    *tracer
}

func newTracedNet(inner transport.Network, tr *tracer) *tracedNet {
	return &tracedNet{inner: inner, tr: tr}
}

// fullEndpoint is every interface the wrapper forwards; netsim endpoints
// implement all of them.
type fullEndpoint interface {
	transport.Endpoint
	transport.StableSender
	transport.RefResolver
	transport.RefSender
	transport.RefBatchSender
}

func (n *tracedNet) NewEndpoint(addr transport.Addr) (transport.Endpoint, error) {
	ep, err := n.inner.NewEndpoint(addr)
	if err != nil {
		return nil, err
	}
	full, ok := ep.(fullEndpoint)
	if !ok {
		_ = ep.Close()
		return nil, fmt.Errorf("traced endpoint %s: inner endpoint %T lacks an optional send interface", addr, ep)
	}
	te := &tracedEndpoint{inner: full, tr: n.tr, server: strings.HasPrefix(string(addr), "server-")}
	if !te.server {
		te.sampled = n.tr.addViewer(addr)
	}
	return te, nil
}

type tracedEndpoint struct {
	inner   fullEndpoint
	tr      *tracer
	server  bool
	sampled bool // a viewer endpoint whose spans are kept
}

var (
	_ fullEndpoint      = (*tracedEndpoint)(nil)
	_ transport.Network = (*tracedNet)(nil)
)

func (e *tracedEndpoint) Addr() transport.Addr { return e.inner.Addr() }
func (e *tracedEndpoint) Close() error         { return e.inner.Close() }

func (e *tracedEndpoint) Send(to transport.Addr, p []byte) error {
	t0 := time.Now()
	err := e.inner.Send(to, p)
	e.tr.sent(t0, p)
	return err
}

func (e *tracedEndpoint) SendStable(to transport.Addr, p []byte) error {
	t0 := time.Now()
	err := e.inner.SendStable(to, p)
	e.tr.sent(t0, p)
	return err
}

func (e *tracedEndpoint) ResolveAddr(to transport.Addr) transport.AddrRef {
	return e.inner.ResolveAddr(to)
}

func (e *tracedEndpoint) SendRef(to transport.AddrRef, p []byte) error {
	t0 := time.Now()
	err := e.inner.SendRef(to, p)
	e.tr.sent(t0, p)
	return err
}

func (e *tracedEndpoint) SendStableRef(to transport.AddrRef, p []byte) error {
	t0 := time.Now()
	err := e.inner.SendStableRef(to, p)
	e.tr.sent(t0, p)
	return err
}

func (e *tracedEndpoint) SendStableRefBatch(dsts []transport.AddrRef, ps [][]byte) error {
	t0 := time.Now()
	err := e.inner.SendStableRefBatch(dsts, ps)
	e.tr.sentBatch(t0, ps)
	return err
}

func (e *tracedEndpoint) SetHandler(h transport.Handler) {
	if h == nil {
		e.inner.SetHandler(nil)
		return
	}
	e.inner.SetHandler(func(from transport.Addr, p []byte) {
		tr := e.tr
		outer := tr.child
		tr.child = 0
		t0 := time.Now()
		h(from, p)
		d := time.Since(t0)
		self := d - tr.child
		tr.child = outer + d
		tr.received(e, from, p, t0, d, self)
	})
}

// Packet kinds by mux channel byte and message-type byte.
const (
	kindVideo = iota
	kindLeaseRenew
	kindLeaseAck
	kindGCSHeartbeat
	kindGCSAck
	kindGCSMcast
	kindOpen
	kindFlow
	kindOther
	numKinds
)

var kindNames = [numKinds]string{"video", "lease_renew", "lease_ack", "gcs_heartbeat", "gcs_ack", "gcs_mcast", "open", "flow", "other"}

// classify maps a datagram to its kind. Layouts: byte 0 is the mux channel
// (1 gcs, 2 video); on the gcs channel byte 1 is the gcs message kind
// (1 heartbeat, 2 direct, 3 anycast, 4 mcast, 6 ack vector); a direct
// message wraps a u32-length payload whose first byte is a lease kind
// (0x11 renew, 0x12 ack) or a wire.Kind (1 open, 2 open reply, 4 flow);
// an anycast prefixes that payload with a u16-length group name.
func classify(p []byte) int {
	if len(p) < 2 {
		return kindOther
	}
	switch transport.ChannelID(p[0]) {
	case transport.ChannelVideo:
		return kindVideo
	case transport.ChannelGCS:
	default:
		return kindOther
	}
	var inner []byte
	switch p[1] {
	case 1:
		return kindGCSHeartbeat
	case 4:
		return kindGCSMcast
	case 6:
		return kindGCSAck
	case 2:
		inner = p[2:]
	case 3:
		if len(p) < 4 {
			return kindOther
		}
		skip := 4 + int(binary.BigEndian.Uint16(p[2:4]))
		if len(p) < skip {
			return kindOther
		}
		inner = p[skip:]
	default:
		return kindOther
	}
	if len(inner) < 5 {
		return kindOther
	}
	switch inner[4] {
	case 0x11:
		return kindLeaseRenew
	case 0x12:
		return kindLeaseAck
	case 1, 2:
		return kindOpen
	case 4:
		return kindFlow
	}
	return kindOther
}

// span is one recorded layer boundary crossing of a sampled viewer.
type span struct {
	Viewer string  `json:"viewer"`
	Layer  string  `json:"layer"`
	Kind   string  `json:"kind"`
	Start  int64   `json:"start_ns"` // wall nanoseconds since the tracer started
	Dur    float64 `json:"dur_us"`
	Self   float64 `json:"self_us"`
}

// tracer aggregates spans at the network boundary: netsim.send (every
// Send* and batch call) and server.recv / client.recv (every handler
// invocation, whose self time excludes the sends it makes). Aggregates
// cover all viewers; full spans, keyed by viewer, are kept for every
// sampleEvery-th viewer.
type tracer struct {
	start       time.Time
	sampleEvery int
	maxSpans    int

	child time.Duration // send time inside the currently open handler span

	sendTime   time.Duration
	batchCalls uint64
	batchDsts  uint64
	dispatches uint64
	serverSelf time.Duration
	clientSelf time.Duration
	sentPkts   [numKinds]uint64
	recvBytes  [numKinds]uint64
	viewers    int
	sampled    map[transport.Addr]bool
	spans      []span
}

func newTracer(sampleEvery int) *tracer {
	return &tracer{
		start:       time.Now(),
		sampleEvery: sampleEvery,
		maxSpans:    200_000,
		sampled:     make(map[transport.Addr]bool),
	}
}

// reset zeroes the aggregates and drops the kept spans, keeping the
// viewer registrations, so the counts start over at a trial's first timed
// instant.
func (t *tracer) reset() {
	*t = tracer{
		start:       time.Now(),
		sampleEvery: t.sampleEvery,
		maxSpans:    t.maxSpans,
		viewers:     t.viewers,
		sampled:     t.sampled,
	}
}

// addViewer registers a viewer endpoint and reports whether its spans are
// kept. Viewers are sampled in creation order.
func (t *tracer) addViewer(addr transport.Addr) bool {
	s := t.viewers%t.sampleEvery == 0
	t.viewers++
	if s {
		t.sampled[addr] = true
	}
	return s
}

func (t *tracer) sent(t0 time.Time, p []byte) {
	d := time.Since(t0)
	t.sendTime += d
	t.child += d
	t.sentPkts[classify(p)]++
}

func (t *tracer) sentBatch(t0 time.Time, ps [][]byte) {
	d := time.Since(t0)
	t.sendTime += d
	t.child += d
	t.batchCalls++
	t.batchDsts += uint64(len(ps))
	for _, p := range ps {
		t.sentPkts[classify(p)]++
	}
}

func (t *tracer) received(e *tracedEndpoint, from transport.Addr, p []byte, t0 time.Time, d, self time.Duration) {
	t.dispatches++
	kind := classify(p)
	t.recvBytes[kind] += uint64(len(p))
	viewer, layer, sampled := e.inner.Addr(), "client.recv", e.sampled
	if e.server {
		t.serverSelf += self
		viewer, layer, sampled = from, "server.recv", t.sampled[from]
	} else {
		t.clientSelf += self
	}
	if sampled && len(t.spans) < t.maxSpans {
		t.spans = append(t.spans, span{
			Viewer: string(viewer),
			Layer:  layer,
			Kind:   kindNames[kind],
			Start:  t0.Sub(t.start).Nanoseconds(),
			Dur:    float64(d.Nanoseconds()) / 1e3,
			Self:   float64(self.Nanoseconds()) / 1e3,
		})
	}
}

// controlBytesRatio is delivered non-video bytes per delivered video byte.
func (t *tracer) controlBytesRatio() float64 {
	var ctl uint64
	for k, b := range t.recvBytes {
		if k != kindVideo {
			ctl += b
		}
	}
	if t.recvBytes[kindVideo] == 0 {
		return 0
	}
	return float64(ctl) / float64(t.recvBytes[kindVideo])
}
