package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"luckystore/internal/checker"
	"luckystore/internal/node"
	"luckystore/internal/storage"
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// stepCounter is an automaton that reports which step entry point the
// driver used.
type stepCounter struct{ steps, appends int }

func (a *stepCounter) Step(types.ProcID, wire.Message) []transport.Outgoing {
	a.steps++
	return nil
}

func (a *stepCounter) StepAppend(_ types.ProcID, _ wire.Message, out []transport.Outgoing) []transport.Outgoing {
	a.appends++
	return out
}

// A traced shard must keep the step pool on the append path: node.StepInto
// through the decorator reaches the inner StepAppend, never Step.
func TestTracedShardForwardsAppendStepper(t *testing.T) {
	inner := &stepCounter{}
	tr := newTracer()
	ts := &tracedShard{inner: inner, tr: tr, log: tr.newLog()}
	node.StepInto(ts, types.WriterID(), wire.Keyed{Key: "k", Inner: wire.Read{TSR: 1, Round: 1}}, nil)
	if inner.appends != 1 || inner.steps != 0 {
		t.Fatalf("inner stepped via StepAppend %d times, Step %d times; want 1 and 0", inner.appends, inner.steps)
	}
}

// Storage spans recorded inside a step name that step as their parent.
func TestTracedBackendSpansNestUnderStep(t *testing.T) {
	tr := newTracer()
	ts := &tracedShard{tr: tr, log: tr.newLog()}
	mem := storage.NewMemory(nil)
	ts.inner = storage.NewDurable(&stepCounter{}, &tracedBackend{Backend: mem, shard: ts}, types.ServerID(0))
	pw := wire.Keyed{Key: "k", Inner: wire.PW{TS: 1, PW: types.Tagged{TS: 1, W: 0, Val: "v"}}}
	node.StepInto(ts, types.WriterID(), pw, nil)

	var step span
	var storageSpans []span
	for _, s := range tr.spans() {
		if s.kind == spanStep {
			step = s
		} else {
			storageSpans = append(storageSpans, s)
		}
	}
	if len(storageSpans) != 2 {
		t.Fatalf("got %d storage spans, want append and commit", len(storageSpans))
	}
	for _, s := range storageSpans {
		if s.parent != step.id || s.start < step.start || s.end > step.end {
			t.Errorf("storage span %+v not nested under step %+v", s, step)
		}
	}
	if mem.Stats().Records != 1 {
		t.Errorf("backend holds %d records, want 1", mem.Stats().Records)
	}
}

// fastEndpoint is a client endpoint with the batch and flush fast paths.
type fastEndpoint struct {
	sends, batched, flushes int
	recv                    chan wire.Envelope
}

func (e *fastEndpoint) ID() types.ProcID                      { return types.WriterID() }
func (e *fastEndpoint) Recv() <-chan wire.Envelope            { return e.recv }
func (e *fastEndpoint) Close() error                          { return nil }
func (e *fastEndpoint) Send(types.ProcID, wire.Message) error { e.sends++; return nil }
func (e *fastEndpoint) Flush() error                          { e.flushes++; return nil }
func (e *fastEndpoint) SendBatched(_ types.ProcID, msgs []wire.Message) error {
	e.batched += len(msgs)
	return nil
}

// The coalescer over a traced endpoint must still hand whole runs to the
// TCP client's SendBatched, and Flush must reach the inner endpoint.
func TestTracedEndpointForwardsBatchSenderAndFlusher(t *testing.T) {
	inner := &fastEndpoint{recv: make(chan wire.Envelope)}
	tr := newTracer()
	ep := &tracedEndpoint{batchEndpoint: inner, tr: tr, log: tr.newLog()}
	c := transport.NewCoalescer(ep)
	for i := 0; i < 4; i++ {
		if err := c.Send(types.ServerID(0), wire.Keyed{Key: "k", Inner: wire.Read{TSR: 1, Round: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := ep.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if inner.batched != 4 || inner.sends != 0 {
		t.Errorf("inner got %d batched and %d single sends, want 4 and 0", inner.batched, inner.sends)
	}
	if inner.flushes != 1 {
		t.Errorf("inner Flush reached %d times, want 1", inner.flushes)
	}
	if len(tr.spans()) == 0 {
		t.Error("no send spans recorded")
	}
}

// On the real traced graph every server step of a blocking call finds
// that call as its parent, and storage spans sit under steps.
func TestTracedDeploymentParentsSpans(t *testing.T) {
	d, err := deployTraced(serverDirs(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	if err := d.warmUp(keyNames(2), checker.NewRecorder()); err != nil {
		t.Fatal(err)
	}
	if err := d.store.Flush(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // late replies to the last call land
	calls, steps := map[uint32]bool{}, map[uint32]bool{}
	spans := d.trace.spans()
	for _, s := range spans {
		switch s.kind {
		case spanKVPut, spanKVGet:
			calls[s.id] = true
		case spanStep:
			steps[s.id] = true
		}
	}
	if len(calls) != 4 {
		t.Fatalf("got %d kv call spans, want 4", len(calls))
	}
	parented, commits := 0, 0
	for _, s := range spans {
		switch s.kind {
		case spanStep:
			if calls[s.parent] {
				parented++
			}
		case spanStorageCommit:
			commits++
			if !steps[s.parent] {
				t.Errorf("commit span %+v has no step parent", s)
			}
		}
	}
	// Each call reaches all six servers; a fast read may return before
	// the sixth reply, whose step then has no call in flight.
	if parented < 4*5 {
		t.Errorf("%d steps found their kv call, want ≥ 20", parented)
	}
	if commits < 2*benchConfig.S()-1 {
		t.Errorf("%d commit spans for 2 puts on %d servers", commits, benchConfig.S())
	}
}

// A traced run of each workload prints every per-layer metric and loads
// the layers the workload was chosen for; bad flags exit nonzero without
// printing a result.
func TestRunTracedWorkloads(t *testing.T) {
	positive := func(v float64) bool { return v > 0 }
	cases := []struct {
		workload string
		want     map[string]func(float64) bool
	}{
		{"mem-batch", map[string]func(float64) bool{
			"transport.batch_width": func(v float64) bool { return v > 1 },
			"storage.fsyncs_per_op": func(v float64) bool { return v == 0 },
			"storage.commit_us_p50": func(v float64) bool { return v == 0 },
		}},
		{"durable-overload", map[string]func(float64) bool{
			"core.timer_expiries_per_kop": positive,
			"storage.fsyncs_per_op":       positive,
			"storage.commit_us_p50":       positive,
		}},
		{"durable-calm", map[string]func(float64) bool{
			"gen.late_us_p99":       func(v float64) bool { return v >= 0 },
			"storage.fsyncs_per_op": positive,
		}},
	}
	for _, c := range cases {
		t.Run(c.workload, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run([]string{"--workload", c.workload, "--seed", "3", "--seconds", "1", "--trace", "1",
				"--data", t.TempDir()}, &out, &errb); code != 0 {
				t.Fatalf("exit %d: %s", code, errb.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"kv.self_us_p50.put", "core.timer_expiries_per_kop", "transport.batch_width",
				"tcpnet.frames_per_op", "node.queue_depth_max", "storage.fsyncs_per_op", "gen.late_us_p99",
				"tail.put_p99_ms", "overhead.goodput_ops_s", "overhead.max_rss_mb"} {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("result lacks %s", name)
				}
			}
			for name, ok := range c.want {
				if v := res.Metrics[name].Value; !ok(v) {
					t.Errorf("%s = %v", name, v)
				}
			}
		})
	}

	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errb); code == 0 || out.Len() != 0 {
		t.Errorf("bad workload: exit %d, stdout %q", code, out.String())
	}
}
