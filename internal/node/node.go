// Package node runs server automata: StepPool's workers step them, and
// a Runner pumps an endpoint's inbox into a pool and sends the produced
// replies. Separating the (deterministic, synchronous) automaton from
// its (concurrent) driver keeps protocol logic unit-testable and makes
// crash injection trivial — crashing a server is stopping its pool.
package node

import (
	"sync"

	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// Automaton is a deterministic message-driven state machine: one step
// consumes a message and yields the messages to send. Implementations
// are not required to be concurrency-safe: one StepPool worker steps
// each automaton.
type Automaton interface {
	Step(from types.ProcID, m wire.Message) []transport.Outgoing
}

// AppendStepper is the allocation-free variant of Automaton's step: the
// caller passes a reusable output buffer and the automaton appends its
// replies instead of allocating a fresh slice per message.
//
// Buffer ownership (the step-sink contract, DESIGN.md §5): the caller
// owns the backing array and may reuse it as soon as it has finished
// with the returned slice; the callee must not retain the slice (or any
// subslice) past the call. The message *values* appended are handed off
// for good — they travel through mailboxes and sockets — so a callee
// must never append a message it plans to mutate later.
type AppendStepper interface {
	StepAppend(from types.ProcID, m wire.Message, out []transport.Outgoing) []transport.Outgoing
}

// StepInto drives one step through the append-based API when a
// implements it, falling back to Step and copying its result. The
// StepPool worker steps every server through this helper, so an
// automaton only has to implement AppendStepper to put its whole
// deployment on the zero-allocation path.
func StepInto(a Automaton, from types.ProcID, m wire.Message, out []transport.Outgoing) []transport.Outgoing {
	if as, ok := a.(AppendStepper); ok {
		return as.StepAppend(from, m, out)
	}
	return append(out, a.Step(from, m)...)
}

// Runner serves automata on one endpoint: a pump goroutine feeds the
// endpoint's inbox into a StepPool, and every step's output goes back
// out through the endpoint. A plain server is the one-shard case
// (NewRunner); a keyed server splits its registers across shards
// stepped in parallel (NewShardedRunner).
//
// Crash, CrashAfterSteps and Steps apply to the whole process — machines
// fail, not shards — and are enforced by the pool's workers, so they
// stay exact however many shards step concurrently.
type Runner struct {
	ep   transport.Endpoint
	pool *StepPool
	sink Sink

	startOnce sync.Once
	done      chan struct{} // closed when the pump has exited
}

// NewRunner creates a runner for the automaton a attached to ep. The
// runner does not start pumping until Start is called.
func NewRunner(ep transport.Endpoint, a Automaton) *Runner {
	return NewShardedRunner(ep, []Automaton{a}, nil)
}

// NewShardedRunner creates a runner pumping ep into the shard automata.
// route maps a message to a shard index (out-of-range results are
// clamped into [0, len(shards))); it must be pure so every message for
// one key lands on one shard. The runner does not start until Start.
func NewShardedRunner(ep transport.Endpoint, shards []Automaton, route func(wire.Message) int) *Runner {
	return &Runner{
		ep:   ep,
		pool: newStepPool(shards, route),
		sink: endpointSink{ep},
		done: make(chan struct{}),
	}
}

// endpointSink sends a step's output back through the server's
// endpoint. Best effort: the network may be shutting down underneath a
// still-running server, and a correct server has nothing better to do
// with a send error than keep serving.
type endpointSink struct{ ep transport.Endpoint }

func (s endpointSink) StepDone(_ int, out []transport.Outgoing) { _ = transport.SendAll(s.ep, out) }

// Start launches the shard workers and the pump. Calling Start more
// than once, or after Crash, is a no-op.
func (r *Runner) Start() {
	r.startOnce.Do(func() {
		r.pool.start()
		go r.pump()
	})
}

// Crash stops the process immediately, as a crash failure: no step
// starts once Crash is called, so messages already queued but not yet
// stepped are never processed, matching the model where a crashed
// process takes no further steps. Crash is idempotent, safe to call
// concurrently, and waits for every goroutine of the runner to exit.
// Crashing a runner that was never started marks it permanently
// stopped (an initially crashed server).
func (r *Runner) Crash() {
	r.pool.halt()
	// If Start never ran, consume the once so nothing can launch later;
	// if Start ran first, this waits for it and the pump closes done.
	r.startOnce.Do(func() { close(r.done) })
	r.pool.Close()
	<-r.done
}

// CrashAfterSteps schedules a crash after n further automaton steps
// (StepPool.CrashAfterSteps).
func (r *Runner) CrashAfterSteps(n int) { r.pool.CrashAfterSteps(n) }

// Steps reports the number of messages processed so far across all
// shards.
func (r *Runner) Steps() int64 { return r.pool.steps.Load() }

// QueueLen reports the total number of messages queued across every
// shard but not yet stepped — the live backpressure signal the admin
// metrics export per server.
func (r *Runner) QueueLen() int {
	n := 0
	for i := 0; i < r.pool.NumShards(); i++ {
		n += r.pool.QueueLen(i)
	}
	return n
}

// NetDriver starts processes as Runners on a network's endpoints: the
// in-process driver of storage.Server (tcpnet.Binding is the TCP one).
type NetDriver struct{ Net transport.Network }

// Start runs the shards on the endpoint of process id and returns the
// pool stepping them plus the runner's Crash.
func (d NetDriver) Start(id types.ProcID, shards []Automaton, route func(wire.Message) int) (*StepPool, func(), error) {
	ep, err := d.Net.Endpoint(id)
	if err != nil {
		return nil, nil, err
	}
	r := NewShardedRunner(ep, shards, route)
	r.Start()
	return r.pool, r.Crash, nil
}

// Stop is an alias of Crash: in this model a graceful shutdown and a
// crash are indistinguishable to the rest of the system.
func (r *Runner) Stop() { r.Crash() }

// pump feeds the endpoint's inbox into the pool until the pool stops or
// the endpoint closes. Submit blocks on a full shard queue, which holds
// further messages in the endpoint's inbox.
func (r *Runner) pump() {
	defer close(r.done)
	for {
		select {
		case <-r.pool.stop:
			return
		case env, ok := <-r.ep.Recv():
			if !ok {
				r.pool.halt() // nothing more can arrive
				return
			}
			if !r.pool.Submit(env.From, env.Msg, r.sink, 0) {
				return
			}
		}
	}
}
