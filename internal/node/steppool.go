package node

import (
	"sync"
	"sync/atomic"

	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// stepQueueDepth bounds each shard's job queue. A full queue blocks
// Submit — backpressure on whoever feeds the pool (a Runner's endpoint
// pump, a TCP read loop that then stops reading its socket) instead of
// unbounded memory growth under overload. No worker ever waits on its
// feeder, so a full queue cannot deadlock.
const stepQueueDepth = 256

// Sink receives the output of submitted steps. StepDone runs on the
// stepping shard's worker goroutine and therefore must not block; a
// blocking sink stalls every key on that shard. tag is the value passed
// to Submit, so one sink can tell many in-flight steps apart without a
// per-step closure.
//
// out is the worker's reusable scratch buffer (the step-sink contract,
// DESIGN.md §5): it is valid only for the duration of the call, so a
// sink that needs the replies later must copy the message values out
// (the values themselves are safe to retain — only the slice is reused).
type Sink interface {
	StepDone(tag int, out []transport.Outgoing)
}

// poolJob is one queued automaton step plus the sink that receives its
// output — or, when do is set, an arbitrary closure run with exclusive
// ownership of the shard automaton (see Do).
type poolJob struct {
	from types.ProcID
	msg  wire.Message
	sink Sink
	tag  int
	do   func(Automaton)
}

// StepPool is the one engine that steps server automata: one worker
// goroutine owns each shard exclusively, so shard automata (e.g.
// keyed.ShardedServer's unlocked per-shard maps) need no locking, and
// independent shards step in parallel. Callers feed it with Submit —
// a Runner pumps an endpoint into it, tcpnet's read loops feed it
// decoded frames.
//
// The pool also carries the crash model. Close stops it as a crash:
// no step starts once it is called, and queued steps are dropped. The
// step budget (CrashAfterSteps) is enforced by the workers
// with an atomic ticket, so "handle exactly n more messages, then stop"
// holds even across concurrent shards.
type StepPool struct {
	shards []Automaton
	route  func(wire.Message) int
	queues []chan poolJob

	steps      atomic.Int64
	crashAfter atomic.Int64 // halt once steps reaches this value; <0 means never

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// NewStepPool creates a pool stepping the shard automata and starts one
// worker per shard. route maps a message to a shard index (out-of-range
// results are clamped into [0, len(shards))); it must be pure so every
// message for one key lands on one shard. A nil route sends everything
// to shard 0.
func NewStepPool(shards []Automaton, route func(wire.Message) int) *StepPool {
	p := newStepPool(shards, route)
	p.start()
	return p
}

// newStepPool builds a pool whose workers do not run until start.
func newStepPool(shards []Automaton, route func(wire.Message) int) *StepPool {
	if len(shards) == 0 {
		panic("node: step pool needs at least one shard")
	}
	p := &StepPool{
		shards: shards,
		route:  route,
		queues: make([]chan poolJob, len(shards)),
		stop:   make(chan struct{}),
	}
	for i := range p.queues {
		p.queues[i] = make(chan poolJob, stepQueueDepth)
	}
	p.crashAfter.Store(-1)
	return p
}

func (p *StepPool) start() {
	p.wg.Add(len(p.shards))
	for i := range p.shards {
		go p.work(i)
	}
}

// Submit queues one step on the message's shard and returns true, or
// returns false if the pool is closed (the sink will never be called).
// Submit blocks while the shard's queue is full. A true return means
// the job was queued, not that it will run: Close drops queued jobs,
// so a caller waiting on a sink must also watch its own shutdown
// signal (as tcpnet's write pump does).
func (p *StepPool) Submit(from types.ProcID, m wire.Message, sink Sink, tag int) bool {
	i := 0
	if p.route != nil {
		if i = p.route(m); i < 0 || i >= len(p.queues) {
			i = 0
		}
	}
	select {
	case <-p.stop:
		return false
	case p.queues[i] <- poolJob{from: from, msg: m, sink: sink, tag: tag}:
		return true
	}
}

// Do runs fn on shard i's worker goroutine with exclusive ownership of
// that shard's automaton — the race-free way to inspect (or mutate)
// live shard state without stopping the pool; the admin API's
// /debug/stamps walks shards this way. Do blocks until fn has run and
// returns true, or returns false without running fn if the pool is
// closed (or closes while the job is queued). fn must not block on the
// pool itself: its shard steps nothing until fn returns.
func (p *StepPool) Do(i int, fn func(Automaton)) bool {
	if i < 0 || i >= len(p.queues) {
		return false
	}
	done := make(chan struct{})
	job := poolJob{do: func(a Automaton) {
		defer close(done)
		fn(a)
	}}
	select {
	case <-p.stop:
		return false
	case p.queues[i] <- job:
	}
	select {
	case <-done:
		return true
	case <-p.stop:
		// Close may have dropped the queued job; it may also already be
		// running. Either way the worker exits without stepping further,
		// so waiting on done could hang — report failure.
		return false
	}
}

// CrashAfterSteps schedules a crash after n further automaton steps,
// counted across all shards: the process handles exactly n more
// messages and then stops — used to script failures "in the middle" of
// an operation.
func (p *StepPool) CrashAfterSteps(n int) {
	p.crashAfter.Store(p.steps.Load() + int64(n))
}

// NumShards reports the pool's shard count.
func (p *StepPool) NumShards() int { return len(p.queues) }

// QueueLen reports the number of jobs queued on shard i — the live
// backpressure signal the admin metrics export per shard.
func (p *StepPool) QueueLen(i int) int {
	if i < 0 || i >= len(p.queues) {
		return 0
	}
	return len(p.queues[i])
}

// Close stops every worker and waits for them to exit. Jobs queued but
// not yet stepped are dropped — to a client this is indistinguishable
// from the server crashing with those messages in flight, which the
// protocols tolerate. Close is idempotent.
func (p *StepPool) Close() {
	p.halt()
	p.wg.Wait()
}

// halt signals every worker (and every Submit) to stop without waiting.
func (p *StepPool) halt() { p.stopOnce.Do(func() { close(p.stop) }) }

// work is shard i's worker: the only goroutine ever stepping shards[i],
// and the exclusive owner of the scratch buffer its sinks see.
func (p *StepPool) work(i int) {
	defer p.wg.Done()
	var scratch []transport.Outgoing
	for {
		var job poolJob
		select {
		case <-p.stop:
			return
		case job = <-p.queues[i]:
		}
		// When stop and a job are both ready the select above picks at
		// random; this second look makes a crash win, so a message
		// queued before Close is never stepped after it.
		select {
		case <-p.stop:
			return
		default:
		}
		if job.do != nil {
			job.do(p.shards[i])
			continue
		}
		if !p.reserveStep() {
			return
		}
		scratch = StepInto(p.shards[i], job.from, job.msg, scratch[:0])
		job.sink.StepDone(job.tag, scratch)
	}
}

// reserveStep claims one step ticket, or halts the pool and reports
// false if the budget is exhausted. The CAS loop makes the budget exact
// across concurrent workers: each ticket admits one message, the
// (n+1)-th reservation crashes the pool instead.
func (p *StepPool) reserveStep() bool {
	for {
		s := p.steps.Load()
		if ca := p.crashAfter.Load(); ca >= 0 && s >= ca {
			p.halt()
			return false
		}
		if p.steps.CompareAndSwap(s, s+1) {
			return true
		}
	}
}
