package node

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"luckystore/internal/simnet"
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// shardEcho replies to ABDRead with an ack naming the shard in the Seq
// field. It is deliberately not concurrency-safe: exclusive shard
// ownership is what makes it correct, and the -race runs would flag any
// violation.
type shardEcho struct {
	shard int
	steps int
}

func (e *shardEcho) Step(from types.ProcID, m wire.Message) []transport.Outgoing {
	e.steps++
	if _, ok := m.(wire.ABDRead); !ok {
		return nil
	}
	return []transport.Outgoing{{
		To:  from,
		Msg: wire.ABDReadAck{Seq: int64(e.shard), C: types.Bottom()},
	}}
}

// routeBySeq routes ABDRead{Seq} to shard Seq % n, everything else to 0.
func routeBySeq(n int) func(wire.Message) int {
	return func(m wire.Message) int {
		if r, ok := m.(wire.ABDRead); ok {
			return int(r.Seq) % n
		}
		return 0
	}
}

func setupSharded(t *testing.T, shards int) (*simnet.Network, transport.Endpoint, *Runner, []*shardEcho) {
	t.Helper()
	n, err := simnet.New([]types.ProcID{types.WriterID(), types.ServerID(0)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	cli, err := n.Endpoint(types.WriterID())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := n.Endpoint(types.ServerID(0))
	if err != nil {
		t.Fatal(err)
	}
	autos := make([]*shardEcho, shards)
	as := make([]Automaton, shards)
	for i := range autos {
		autos[i] = &shardEcho{shard: i}
		as[i] = autos[i]
	}
	r := NewShardedRunner(srv, as, routeBySeq(shards))
	return n, cli, r, autos
}

func TestShardedRunnerRoutesToOwningShard(t *testing.T) {
	_, cli, r, autos := setupSharded(t, 4)
	r.Start()
	r.Start() // idempotent
	defer r.Stop()

	const msgs = 40
	for i := 0; i < msgs; i++ {
		if err := cli.Send(types.ServerID(0), wire.ABDRead{Seq: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	perShard := make(map[int64]int)
	for i := 0; i < msgs; i++ {
		env := recvOrFail(t, cli)
		ack, ok := env.Msg.(wire.ABDReadAck)
		if !ok {
			t.Fatalf("reply = %T, want ABDReadAck", env.Msg)
		}
		perShard[ack.Seq]++
	}
	for s := int64(0); s < 4; s++ {
		if perShard[s] != msgs/4 {
			t.Errorf("shard %d handled %d messages, want %d", s, perShard[s], msgs/4)
		}
	}
	r.Stop() // quiesce before reading automaton state
	total := 0
	for _, a := range autos {
		total += a.steps
	}
	if total != msgs {
		t.Errorf("automata stepped %d times, want %d", total, msgs)
	}
	if got := r.Steps(); got != msgs {
		t.Errorf("Steps() = %d, want %d", got, msgs)
	}
}

func TestShardedRunnerCrashStopsAllShards(t *testing.T) {
	_, cli, r, _ := setupSharded(t, 4)
	r.Start()
	if err := cli.Send(types.ServerID(0), wire.ABDRead{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	recvOrFail(t, cli)
	r.Crash()
	r.Crash() // idempotent
	for i := 0; i < 4; i++ {
		if err := cli.Send(types.ServerID(0), wire.ABDRead{Seq: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case env := <-cli.Recv():
		t.Fatalf("crashed server replied: %+v", env)
	case <-time.After(100 * time.Millisecond):
	}
}

// TestShardedRunnerCrashAfterStepsExact floods every shard concurrently
// and checks the pool processes exactly n more messages: the step
// budget is an atomic ticket, not a per-shard approximation.
func TestShardedRunnerCrashAfterStepsExact(t *testing.T) {
	_, cli, r, _ := setupSharded(t, 8)
	r.Start()
	defer r.Stop()
	const budget = 25
	r.CrashAfterSteps(budget)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				_ = cli.Send(types.ServerID(0), wire.ABDRead{Seq: int64(g*20 + i)})
			}
		}(g)
	}
	wg.Wait()

	replies := 0
	for {
		select {
		case _, ok := <-cli.Recv():
			if !ok {
				t.Fatal("client inbox closed")
			}
			replies++
			if replies > budget {
				t.Fatalf("got %d replies, budget was %d", replies, budget)
			}
		case <-time.After(300 * time.Millisecond):
			if replies != budget {
				t.Fatalf("got %d replies, want exactly %d", replies, budget)
			}
			if got := r.Steps(); got != budget {
				t.Errorf("Steps() = %d, want %d", got, budget)
			}
			return
		}
	}
}

func TestShardedRunnerCrashBeforeStart(t *testing.T) {
	_, cli, r, _ := setupSharded(t, 2)
	done := make(chan struct{})
	go func() {
		r.Crash()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Crash on a never-started sharded runner hung")
	}
	r.Start() // must be a no-op
	if err := cli.Send(types.ServerID(0), wire.ABDRead{Seq: 0}); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-cli.Recv():
		t.Fatalf("crashed-before-start server replied: %+v", env)
	case <-time.After(100 * time.Millisecond):
	}
	r.Stop() // still idempotent
}

// idleEndpoint is an endpoint nothing ever arrives on, for runners that
// are never started.
type idleEndpoint struct{ ch chan wire.Envelope }

func (idleEndpoint) ID() types.ProcID                      { return types.ServerID(0) }
func (idleEndpoint) Send(types.ProcID, wire.Message) error { return nil }
func (e idleEndpoint) Recv() <-chan wire.Envelope          { return e.ch }
func (idleEndpoint) Close() error                          { return nil }

// TestShardedRunnerCrashBeforeStartJoinsQueues verifies a crashed,
// never-started runner leaves no goroutines behind: the per-shard queue
// drainers must be closed by Crash when the Start path never runs.
func TestShardedRunnerCrashBeforeStartJoinsQueues(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		autos := make([]Automaton, 8)
		for j := range autos {
			autos[j] = &shardEcho{shard: j}
		}
		r := NewShardedRunner(idleEndpoint{ch: make(chan wire.Envelope)}, autos, routeBySeq(8))
		r.Crash()
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	// 10 runners × 8 shards would leak 80 drainers; allow slack for
	// unrelated runtime goroutines.
	if got := runtime.NumGoroutine(); got > before+5 {
		t.Errorf("goroutines grew %d → %d: crash-before-start leaks shard queues", before, got)
	}
}

func TestShardedRunnerExitsWhenEndpointCloses(t *testing.T) {
	n, _, r, _ := setupSharded(t, 2)
	r.Start()
	n.Close()
	done := make(chan struct{})
	go func() {
		r.Stop() // must return promptly: dispatcher saw the closed channel
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("sharded runner did not exit after endpoint close")
	}
}

func TestShardedRunnerOutOfRangeRouteClamps(t *testing.T) {
	n, err := simnet.New([]types.ProcID{types.WriterID(), types.ServerID(0)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	cli, _ := n.Endpoint(types.WriterID())
	srv, _ := n.Endpoint(types.ServerID(0))
	a := &shardEcho{shard: 7}
	r := NewShardedRunner(srv, []Automaton{a}, func(wire.Message) int { return 99 })
	r.Start()
	defer r.Stop()
	if err := cli.Send(types.ServerID(0), wire.ABDRead{Seq: 3}); err != nil {
		t.Fatal(err)
	}
	env := recvOrFail(t, cli)
	if ack := env.Msg.(wire.ABDReadAck); ack.Seq != 7 {
		t.Errorf("reply came from shard-tagged ack %d, want 7 (shard 0 clamped)", ack.Seq)
	}
}

// gatedEcho is shardEcho whose first step blocks until gate closes,
// announcing through entered that it has begun.
type gatedEcho struct {
	shardEcho
	entered, gate chan struct{}
}

func (g *gatedEcho) Step(from types.ProcID, m wire.Message) []transport.Outgoing {
	if g.steps == 0 {
		close(g.entered)
		<-g.gate
	}
	return g.shardEcho.Step(from, m)
}

// TestCrashDropsQueuedMessages pins the crash semantics: messages
// queued before Crash are never stepped, even when the worker finds
// both the crash signal and a queued message ready. The first step is
// held on a gate while more messages queue behind it on the same
// shard; the crash lands, then the gate opens. Each round is ordered
// through channels and queue depths, not sleeps, and the rounds repeat
// because a worker that picked at random between the two would step a
// queued message about half the time.
func TestCrashDropsQueuedMessages(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for round := 0; round < 20; round++ {
			n, err := simnet.New([]types.ProcID{types.WriterID(), types.ServerID(0)})
			if err != nil {
				t.Fatal(err)
			}
			cli, _ := n.Endpoint(types.WriterID())
			srv, _ := n.Endpoint(types.ServerID(0))
			autos := make([]Automaton, shards)
			for i := range autos {
				autos[i] = &shardEcho{shard: i}
			}
			g := &gatedEcho{entered: make(chan struct{}), gate: make(chan struct{})}
			autos[0] = g
			r := NewShardedRunner(srv, autos, routeBySeq(shards))
			r.Start()

			const queued = 3
			for i := 0; i <= queued; i++ {
				// Seq multiples of shards all route to the gated shard 0.
				if err := cli.Send(types.ServerID(0), wire.ABDRead{Seq: int64(i * shards)}); err != nil {
					t.Fatal(err)
				}
			}
			<-g.entered
			for r.QueueLen() < queued {
				runtime.Gosched()
			}
			crashed := make(chan struct{})
			go func() {
				r.Crash()
				close(crashed)
			}()
			<-r.pool.stop // the crash has been signalled
			close(g.gate)
			<-crashed
			if got := r.Steps(); got != 1 {
				t.Fatalf("shards=%d round %d: Steps() = %d after crash, want 1", shards, round, got)
			}
			if g.steps != 1 {
				t.Fatalf("shards=%d round %d: gated shard stepped %d times, want 1", shards, round, g.steps)
			}
			n.Close()
		}
	}
}
