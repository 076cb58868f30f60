package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"luckystore/internal/core"
	"luckystore/internal/kv"
	"luckystore/internal/metrics"
	"luckystore/internal/node"
	"luckystore/internal/storage"
	"luckystore/internal/tcpnet"
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	spanKVPut         spanKind = iota + 1 // kv.Store Put or PutBatch call
	spanKVGet                             // kv.Store Get or GetBatch call
	spanStep                              // node.Automaton step on a server shard
	spanStorageAppend                     // storage.Backend Append inside a step
	spanStorageCommit                     // storage.Backend Commit inside a step
	spanSend                              // transport.Endpoint send under the coalescer
)

// span is one timed call at a layer boundary. Times are nanoseconds
// since the tracer's base. A kv call is its own op; a server step's
// parent is the in-flight kv call for its sender and key; a storage
// span's parent is the step that encloses it on the same goroutine; a
// send's parent is the kv call of its first message.
type span struct {
	start, end int64
	child      int64 // steps: time covered by their storage spans
	id         uint32
	parent     uint32
	op         uint32
	width      uint32 // sends: messages carried
	kind       spanKind
}

func (s span) dur() time.Duration { return time.Duration(s.end - s.start) }

// spanLog is an in-memory span buffer. Each decorator owns one, so the
// lock is uncontended except between the kv callers.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// callKey identifies the one kv call a client can have in flight on a
// key: a session serializes its operations per key.
type callKey struct {
	client types.ProcID
	key    string
}

// tracer records spans from the decorators of one traced deployment
// and holds the registry its layers were instrumented with.
type tracer struct {
	base time.Time
	ids  atomic.Uint32

	mu       sync.RWMutex
	inflight map[callKey]uint32

	logsMu sync.Mutex
	logs   []*spanLog
	kvLog  *spanLog

	depthMax atomic.Int64

	reg     *metrics.Registry
	coreM   *core.Metrics
	fileM   *storage.FileMetrics
	serverM *tcpnet.ServerMetrics
	clientM []*tcpnet.ClientMetrics
}

func newTracer() *tracer {
	reg := metrics.NewRegistry()
	t := &tracer{
		base:     time.Now(),
		inflight: make(map[callKey]uint32),
		reg:      reg,
		coreM:    core.NewMetrics(reg),
		fileM:    storage.NewFileMetrics(reg),
		serverM:  tcpnet.NewServerMetrics(reg),
		clientM: []*tcpnet.ClientMetrics{
			tcpnet.NewClientMetrics(reg, "writer"),
			tcpnet.NewClientMetrics(reg, "reader"),
		},
	}
	t.kvLog = t.newLog()
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) newLog() *spanLog {
	l := &spanLog{}
	t.logsMu.Lock()
	t.logs = append(t.logs, l)
	t.logsMu.Unlock()
	return l
}

// reset drops every span recorded so far (set-up and warm-up traffic).
func (t *tracer) reset() {
	t.logsMu.Lock()
	defer t.logsMu.Unlock()
	for _, l := range t.logs {
		l.mu.Lock()
		l.spans = l.spans[:0]
		l.mu.Unlock()
	}
	t.depthMax.Store(0)
}

// spans returns every recorded span.
func (t *tracer) spans() []span {
	t.logsMu.Lock()
	defer t.logsMu.Unlock()
	var out []span
	for _, l := range t.logs {
		l.mu.Lock()
		out = append(out, l.spans...)
		l.mu.Unlock()
	}
	return out
}

// kvCall is an open kv call span.
type kvCall struct {
	kind   spanKind
	id     uint32
	start  int64
	client types.ProcID
	keys   []string
}

// begin opens a kv call span and registers it as the in-flight call of
// client on each key, so server steps can find their parent.
func (t *tracer) begin(kind spanKind, client types.ProcID, keys ...string) kvCall {
	c := kvCall{kind: kind, id: t.ids.Add(1), client: client, keys: keys}
	t.mu.Lock()
	for _, k := range keys {
		t.inflight[callKey{client, k}] = c.id
	}
	t.mu.Unlock()
	c.start = t.now()
	return c
}

func (t *tracer) end(c kvCall) {
	end := t.now()
	t.mu.Lock()
	for _, k := range c.keys {
		delete(t.inflight, callKey{c.client, k})
	}
	t.mu.Unlock()
	t.kvLog.add(span{kind: c.kind, start: c.start, end: end, id: c.id, op: c.id})
}

// callFor returns the in-flight kv call a message belongs to, 0 if none
// (a late reply to a finished call, or an unkeyed message).
func (t *tracer) callFor(client types.ProcID, m wire.Message) uint32 {
	k, ok := m.(wire.Keyed)
	if !ok {
		return 0
	}
	t.mu.RLock()
	id := t.inflight[callKey{client, k.Key}]
	t.mu.RUnlock()
	return id
}

func (t *tracer) observeDepth(n int) {
	for {
		cur := t.depthMax.Load()
		if int64(n) <= cur || t.depthMax.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

// tracedShard decorates one shard automaton (node.Automaton) with step
// spans. It forwards node.AppendStepper, so the step pool keeps the
// allocation-free step path.
type tracedShard struct {
	inner node.Automaton
	tr    *tracer
	log   *spanLog
	shard int
	pool  atomic.Pointer[node.StepPool] // set once the listener exists

	// The step in progress, read by this shard's storage decorator: both
	// run on the shard's single worker goroutine.
	cur, curOp uint32
	storageNs  int64
}

var (
	_ node.Automaton     = (*tracedShard)(nil)
	_ node.AppendStepper = (*tracedShard)(nil)
)

func (s *tracedShard) Step(from types.ProcID, m wire.Message) []transport.Outgoing {
	return s.StepAppend(from, m, nil)
}

func (s *tracedShard) StepAppend(from types.ProcID, m wire.Message, out []transport.Outgoing) []transport.Outgoing {
	if p := s.pool.Load(); p != nil {
		s.tr.observeDepth(p.QueueLen(s.shard))
	}
	parent := s.tr.callFor(from, m)
	s.cur, s.curOp, s.storageNs = s.tr.ids.Add(1), parent, 0
	start := s.tr.now()
	out = node.StepInto(s.inner, from, m, out)
	s.log.add(span{kind: spanStep, start: start, end: s.tr.now(), child: s.storageNs,
		id: s.cur, parent: parent, op: parent})
	return out
}

// tracedBackend decorates the storage.Backend one shard's Durable writes
// through: Append and Commit become spans under the enclosing step.
// Everything else is forwarded untouched.
type tracedBackend struct {
	storage.Backend
	shard *tracedShard
}

func (b *tracedBackend) timed(kind spanKind, fn func() error) error {
	s := b.shard
	start := s.tr.now()
	err := fn()
	end := s.tr.now()
	s.storageNs += end - start
	s.log.add(span{kind: kind, start: start, end: end, id: s.tr.ids.Add(1), parent: s.cur, op: s.curOp})
	return err
}

func (b *tracedBackend) Append(payload []byte) error {
	return b.timed(spanStorageAppend, func() error { return b.Backend.Append(payload) })
}

func (b *tracedBackend) Commit() error {
	return b.timed(spanStorageCommit, b.Backend.Commit)
}

// batchEndpoint is a client endpoint that frames drained runs itself,
// as tcpnet's client does.
type batchEndpoint interface {
	transport.Endpoint
	transport.BatchSender
}

// tracedEndpoint decorates a client endpoint with send spans. It forwards
// transport.BatchSender (so the coalescer keeps handing whole drained
// runs to the TCP client) and transport.Flusher.
type tracedEndpoint struct {
	batchEndpoint
	tr  *tracer
	log *spanLog
}

var (
	_ transport.BatchSender = (*tracedEndpoint)(nil)
	_ transport.Flusher     = (*tracedEndpoint)(nil)
)

func (e *tracedEndpoint) record(start int64, msgs []wire.Message) {
	var parent uint32
	if len(msgs) > 0 {
		parent = e.tr.callFor(e.ID(), msgs[0])
	}
	e.log.add(span{kind: spanSend, start: start, end: e.tr.now(), id: e.tr.ids.Add(1),
		parent: parent, op: parent, width: uint32(len(msgs))})
}

func (e *tracedEndpoint) Send(to types.ProcID, m wire.Message) error {
	start := e.tr.now()
	err := e.batchEndpoint.Send(to, m)
	e.record(start, []wire.Message{m})
	return err
}

func (e *tracedEndpoint) SendBatched(to types.ProcID, msgs []wire.Message) error {
	start := e.tr.now()
	err := e.batchEndpoint.SendBatched(to, msgs)
	e.record(start, msgs)
	return err
}

// Flush forwards to the inner Flusher; an endpoint without one hands
// every message to the transport inside Send, so there is nothing to
// wait for.
func (e *tracedEndpoint) Flush() error {
	if f, ok := e.batchEndpoint.(transport.Flusher); ok {
		return f.Flush()
	}
	return nil
}

// deployTraced builds the same server and client graph as deployPublic
// from the layer constructors — kv.NewShardedServerAutomatonInstrumented
// → storage.NewDurable → tcpnet.ListenSharded on the servers,
// tcpnet.Dial → kv.OpenWithEndpoints on the client — with the registry
// the public options would thread through, and a timing decorator on
// every node.Automaton, storage.Backend and transport.Endpoint passed
// between layers.
func deployTraced(dirs []string) (*deployment, error) {
	tr := newTracer()
	serverCore := core.NewServerMetrics(tr.reg)
	durM := storage.NewDurableMetrics(tr.reg)
	var (
		listeners []*tcpnet.Server
		backends  []storage.Backend
	)
	stopServers := func() error {
		var errs []error
		for _, l := range listeners {
			errs = append(errs, l.Close())
		}
		for _, b := range backends {
			errs = append(errs, b.Close())
		}
		return errors.Join(errs...)
	}
	addrs := make(map[types.ProcID]string, benchConfig.S())
	for i := 0; i < benchConfig.S(); i++ {
		id := types.ServerID(i)
		srv := kv.NewShardedServerAutomatonInstrumented(0, serverCore)
		shards := srv.Shards()
		var back storage.Backend
		if dirs != nil {
			f, err := storage.NewFile(dirs[i], kv.NewStorageAutomaton)
			if err != nil {
				_ = stopServers()
				return nil, fmt.Errorf("server %d storage: %w", i, err)
			}
			f.SetMetrics(tr.fileM)
			backends = append(backends, f)
			if _, err := storage.Recover(f, srv); err != nil {
				_ = stopServers()
				return nil, fmt.Errorf("server %d recovery: %w", i, err)
			}
			back = f
		}
		traced := make([]*tracedShard, len(shards))
		for j, sh := range shards {
			ts := &tracedShard{tr: tr, log: tr.newLog(), shard: j}
			if back != nil {
				d := storage.NewDurable(sh, &tracedBackend{Backend: back, shard: ts}, id)
				d.SetMetrics(durM)
				sh = d
			}
			ts.inner = sh
			traced[j], shards[j] = ts, ts
		}
		l, err := tcpnet.ListenSharded(id, "127.0.0.1:0", shards, srv.Route(), tcpnet.WithServerMetrics(tr.serverM))
		if err != nil {
			_ = stopServers()
			return nil, fmt.Errorf("listen server %d: %w", i, err)
		}
		listeners = append(listeners, l)
		for _, ts := range traced {
			ts.pool.Store(l.Pool())
		}
		addrs[id] = l.Addr()
	}
	wep, err := tcpnet.Dial(types.WriterID(), addrs, tcpnet.WithClientMetrics(tr.clientM[0]))
	if err != nil {
		_ = stopServers()
		return nil, fmt.Errorf("dial writer: %w", err)
	}
	rep, err := tcpnet.Dial(types.ReaderID(0), addrs, tcpnet.WithClientMetrics(tr.clientM[1]))
	if err != nil {
		_ = wep.Close()
		_ = stopServers()
		return nil, fmt.Errorf("dial reader: %w", err)
	}
	st, err := kv.OpenWithEndpoints(benchConfig,
		&tracedEndpoint{batchEndpoint: wep, tr: tr, log: tr.newLog()},
		[]transport.Endpoint{&tracedEndpoint{batchEndpoint: rep, tr: tr, log: tr.newLog()}},
		kv.WithMetrics(tr.reg))
	if err != nil {
		_ = wep.Close()
		_ = rep.Close()
		_ = stopServers()
		return nil, fmt.Errorf("open store: %w", err)
	}
	return &deployment{store: st, trace: tr, stop: func() error {
		st.Close()
		return stopServers()
	}}, nil
}

// counters are the registry readings a traced pass differences across
// its window.
type counters struct {
	framesOut, redials, retransmits int64
	fsyncs, flushRecords            int64
	flushBytes, compactions         int64
}

func (t *tracer) counters() counters {
	var c counters
	for _, m := range t.clientM {
		c.framesOut += m.FramesOut.Value()
		c.redials += m.Redials.Value()
	}
	c.retransmits = t.coreM.Retransmits.Value()
	c.fsyncs = t.fileM.FsyncLatency.Count()
	c.flushRecords = int64(t.fileM.FlushRecords.Sum())
	c.flushBytes = t.fileM.FlushBytes.Value()
	c.compactions = t.fileM.Compactions.Value()
	return c
}
