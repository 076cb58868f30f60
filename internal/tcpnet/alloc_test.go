//go:build !race

package tcpnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"testing"

	"luckystore/internal/core"
	"luckystore/internal/kv"
	"luckystore/internal/node"
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// tcpSteadyStateAllocBudget bounds a steady-state fast operation over
// loopback TCP, across all goroutines. On top of simnet's boxings
// (request + S acks) the TCP path pays one decode boxing per frame on
// each side (the codec's unavoidable Message boxing, see
// wire.TestCodecSteadyStateAllocs) — but no per-frame buffers: encode
// goes through pooled/reusable buffers on both client and server, and
// decode through the codec's chunk pool. Structurally that is
// 1 + 2·S boxings client+server plus S decode boxings back at the
// client = 10 for S = 3; the budget has two allocs of headroom.
//
// The tests write one-byte values (interned by the runtime) to pin the
// *structural* cost: multi-byte payloads additionally pay the
// unavoidable one-string-per-decoded-value term, which scales with the
// number of value fields decoded (2·S for PW, up to 3·S for READ_ACK),
// not with the pipeline.
const tcpSteadyStateAllocBudget = 12

// tcpAllocCluster starts S one-shard servers (Listen) and a client
// endpoint for id over loopback TCP.
func tcpAllocCluster(t *testing.T, cfg core.Config, id types.ProcID) *Client {
	t.Helper()
	servers := make(map[types.ProcID]string, cfg.S())
	for i := 0; i < cfg.S(); i++ {
		srv, err := Listen(types.ServerID(i), "127.0.0.1:0", core.NewServer())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		servers[srv.ID()] = srv.Addr()
	}
	c, err := Dial(id, servers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestPutSteadyStateAllocsTCP(t *testing.T) {
	cfg := core.Config{T: 1, B: 0, Fw: 0, NumReaders: 1}
	c := tcpAllocCluster(t, cfg, types.WriterID())
	w := core.NewWriter(cfg, types.WriterID(), c)
	for i := 0; i < 64; i++ {
		if err := w.Write("warm"); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := w.Write("v"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > tcpSteadyStateAllocBudget+0.5 {
		t.Errorf("steady-state Write over TCP: %.1f allocs/op, budget %d", allocs, tcpSteadyStateAllocBudget)
	}
	if !w.LastMeta().Fast {
		t.Fatal("writes were not fast; the measurement did not hit the steady-state path")
	}
}

func TestGetSteadyStateAllocsTCP(t *testing.T) {
	cfg := core.Config{T: 1, B: 0, Fw: 0, NumReaders: 1}
	wc := tcpAllocCluster(t, cfg, types.WriterID())
	w := core.NewWriter(cfg, types.WriterID(), wc)
	if err := w.Write("s"); err != nil {
		t.Fatal(err)
	}
	rc, err := Dial(types.ReaderID(0), wc.addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rc.Close() })
	r := core.NewReader(cfg, types.ReaderID(0), rc)
	for i := 0; i < 64; i++ {
		if _, err := r.Read(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := r.Read(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > tcpSteadyStateAllocBudget+0.5 {
		t.Errorf("steady-state Read over TCP: %.1f allocs/op, budget %d", allocs, tcpSteadyStateAllocBudget)
	}
	if !r.LastMeta().Fast() {
		t.Fatal("reads were not fast; the measurement did not hit the steady-state path")
	}
}

// batchFrame encodes one request frame from reader r0 to s0: a Batch of
// k keyed round-1 READs on distinct keys.
func batchFrame(t *testing.T, k int) []byte {
	t.Helper()
	b := wire.Batch{}
	for i := 0; i < k; i++ {
		b.Msgs = append(b.Msgs, wire.Keyed{Key: fmt.Sprintf("key-%d", i), Inner: wire.Read{TSR: 1, Round: 1}})
	}
	frame, err := wire.AppendFrame(nil, wire.Envelope{From: types.ReaderID(0), To: types.ServerID(0), Msg: b})
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// pipelineAllocs measures allocations per request frame of k keyed
// messages served by ListenSharded over a keyed.ShardedServer, from a
// raw client connection that writes pre-encoded bytes and reads the
// reply frame into a reused buffer (so the client side allocates
// nothing), minus the same frame's codec and step cost measured
// directly: decode, step every message on a twin server, and encode
// the coalesced replies. What remains is what the pipeline itself
// (read loop, shard queues, reply slots, write pump) pays per frame.
func pipelineAllocs(t *testing.T, k int) float64 {
	t.Helper()
	frame := batchFrame(t, k)
	const shards = 4

	auto := kv.NewShardedServerAutomaton(shards)
	srv, err := ListenSharded(types.ServerID(0), "127.0.0.1:0", auto.Shards(), auto.Route())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	if err := writeHello(conn, types.ReaderID(0)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReaderSize(conn, connBufSize)
	var hdr [4]byte
	body := make([]byte, 0, 64<<10)
	roundTrip := func() {
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		// k replies to one request frame coalesce into one Batch frame.
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			t.Fatal(err)
		}
		body = body[:binary.BigEndian.Uint32(hdr[:])]
		if _, err := io.ReadFull(br, body); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		roundTrip()
	}
	served := testing.AllocsPerRun(200, roundTrip)

	twin := kv.NewShardedServerAutomaton(shards)
	twinShards, route := twin.Shards(), twin.Route()
	peer, self := types.ReaderID(0), types.ServerID(0)
	rd := bytes.NewReader(frame)
	var scratch []transport.Outgoing
	var replies []wire.Message
	bw := bufio.NewWriterSize(io.Discard, connBufSize)
	direct := func() {
		rd.Reset(frame)
		env, err := wire.DecodeFrame(rd)
		if err != nil {
			t.Fatal(err)
		}
		replies = replies[:0]
		for _, e := range wire.Expand(env) {
			scratch = node.StepInto(twinShards[route(e.Msg)], peer, e.Msg, scratch[:0])
			for _, o := range scratch {
				replies = append(replies, o.Msg)
			}
		}
		if err := writeReplies(bw, self, peer, replies); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		direct()
	}
	return served - testing.AllocsPerRun(200, direct)
}

// TestBatchFrameAllocsFlatInK is the batch-frame alloc contract: the
// allocations the TCP pipeline adds to one request frame must not grow
// with the number of keyed messages the frame carries. A step costs
// the pipeline no per-message allocation — the frame is the sink of
// its own steps, each slot index the tag.
func TestBatchFrameAllocsFlatInK(t *testing.T) {
	one := pipelineAllocs(t, 1)
	many := pipelineAllocs(t, 32)
	t.Logf("pipeline allocs per frame: k=1 %.1f, k=32 %.1f", one, many)
	if many > one+1 {
		t.Errorf("pipeline allocs grow with batch size: %.1f at k=1, %.1f at k=32", one, many)
	}
}
