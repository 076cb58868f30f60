package tcpnet

import "luckystore/internal/metrics"

// ServerMetrics instruments one TCP server process: request frames
// decoded, reply messages sent, and per-key-class service latency from
// shard submission to the reply leaving the step worker (queueing
// included, socket write excluded). Class labels come from
// metrics.KeyClass, so a serving luckyd exposes the same class
// partition clients measure against. Nil disables everything.
type ServerMetrics struct {
	FramesIn *metrics.Counter
	Replies  *metrics.Counter
	Service  [metrics.NumKeyClasses]*metrics.Histogram
}

// NewServerMetrics wires the server instruments into reg.
func NewServerMetrics(reg *metrics.Registry) *ServerMetrics {
	m := &ServerMetrics{
		FramesIn: reg.Counter("lucky_tcp_frames_in_total",
			"Request frames decoded from client connections."),
		Replies: reg.Counter("lucky_tcp_replies_total",
			"Reply messages sent back to clients."),
	}
	for c := 0; c < metrics.NumKeyClasses; c++ {
		m.Service[c] = reg.Histogram("lucky_tcp_service_latency_ns",
			"Shard service latency by key class: submit to reply-filled, nanoseconds.",
			metrics.L("class", metrics.KeyClassLabels[c]))
	}
	return m
}

func (m *ServerMetrics) frameIn() {
	if m == nil {
		return
	}
	m.FramesIn.Inc()
}

func (m *ServerMetrics) replies(n int) {
	if m == nil || n == 0 {
		return
	}
	m.Replies.Add(int64(n))
}

// ClientMetrics instruments one TCP client endpoint: frames written,
// frames received, and stale-connection redials (the transparent
// retry a crash-restarted server triggers). Nil disables everything.
type ClientMetrics struct {
	FramesOut *metrics.Counter
	FramesIn  *metrics.Counter
	Redials   *metrics.Counter
}

// NewClientMetrics wires the client instruments into reg under the
// given role label (e.g. "writer", "reader").
func NewClientMetrics(reg *metrics.Registry, role string) *ClientMetrics {
	l := metrics.L("role", role)
	return &ClientMetrics{
		FramesOut: reg.Counter("lucky_tcp_client_frames_out_total",
			"Frame-carrying writes to servers (a batched write may carry several frames).", l),
		FramesIn: reg.Counter("lucky_tcp_client_frames_in_total",
			"Frames decoded from servers.", l),
		Redials: reg.Counter("lucky_tcp_client_redials_total",
			"Stale-connection retries: writes that redialed after a peer restart.", l),
	}
}

func (m *ClientMetrics) frameOut() {
	if m == nil {
		return
	}
	m.FramesOut.Inc()
}

func (m *ClientMetrics) frameIn() {
	if m == nil {
		return
	}
	m.FramesIn.Inc()
}

func (m *ClientMetrics) redial() {
	if m == nil {
		return
	}
	m.Redials.Inc()
}
