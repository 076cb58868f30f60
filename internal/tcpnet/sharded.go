package tcpnet

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"luckystore/internal/metrics"
	"luckystore/internal/node"
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// framePipelineDepth bounds how many request frames per connection may
// be in flight between the read loop and the write pump. A full
// pipeline blocks the read loop — backpressure through TCP flow control
// onto a client that stopped reading its replies.
const framePipelineDepth = 64

// ListenSharded starts a server whose automaton is split into shards
// stepped in parallel: a node.StepPool owns one worker per shard, every
// connection's read loop routes each inbound message to its shard, and
// a per-connection write pump sends the replies. No mutex serializes
// steps across connections — messages for different shards (different
// keys, under keyed.ShardedServer's routing) are stepped concurrently,
// across and within connections.
//
// All replies to one request frame coalesce into batch frames (one
// frame per round trip for a batched multi-key request), reply frames
// for one connection go out in request order, and so per-(peer,key)
// FIFO order is preserved end to end.
//
// The shards and route function typically come from a
// keyed.ShardedServer's Shards and Route methods; a nil route sends
// every message to shard 0.
func ListenSharded(id types.ProcID, addr string, shards []node.Automaton, route func(wire.Message) int, opts ...ServerOption) (*Server, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("tcpnet: sharded server needs at least one shard")
	}
	if !id.IsServer() {
		return nil, fmt.Errorf("tcpnet: %q is not a server id", id)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet listen %s: %w", addr, err)
	}
	s := &Server{
		id: id, ln: ln,
		conns:  make(map[net.Conn]struct{}),
		closed: make(chan struct{}),
	}
	for _, o := range opts {
		o(s)
	}
	s.pool = node.NewStepPool(shards, route)
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// replySlot holds one inner message's replies to the peer, plus the
// request's metrics class and submit time. A step of this protocol
// family produces at most one reply to the requester, so the slot
// stores that message inline; rest exists only for exotic automata and
// stays nil on the hot path.
type replySlot struct {
	msg  wire.Message
	rest []wire.Message
	cls  int       // metrics.KeyClass of the request; -1 when unobserved
	t0   time.Time // submit time, set only when cls >= 0
}

// pendingFrame collects the replies of one request frame: one slot per
// inner message, filled by shard workers as steps complete, in whatever
// order the shards finish. The last fill puts a token in ready, and the
// write pump reads the slots in request order — intra-frame reply
// order is deterministic even though stepping was parallel.
//
// A frame is the node.Sink of its own steps, its slot index the tag, so
// submitting a step allocates nothing. Frames are pooled together with
// their slot arrays and their one-slot ready channel; a frame goes back
// to the pool only after its token has been taken, so a recycled frame
// never holds a stale one.
type pendingFrame struct {
	peer      types.ProcID
	met       *ServerMetrics
	slots     []replySlot
	remaining atomic.Int32
	ready     chan struct{}
}

var framePool = sync.Pool{New: func() any {
	return &pendingFrame{ready: make(chan struct{}, 1)}
}}

func newPendingFrame(n int, peer types.ProcID, met *ServerMetrics) *pendingFrame {
	pf := framePool.Get().(*pendingFrame)
	if cap(pf.slots) < n {
		pf.slots = make([]replySlot, n)
	} else {
		pf.slots = pf.slots[:n]
	}
	pf.peer, pf.met = peer, met
	pf.remaining.Store(int32(n))
	return pf
}

// release clears the slots' message references (so pooling does not
// pin replies for GC) and returns the frame to the pool. Only the
// write pump calls it, after the frame has been written or dropped.
func (pf *pendingFrame) release() {
	clear(pf.slots)
	framePool.Put(pf)
}

// StepDone implements node.Sink: it stores slot i's replies — selected
// from the worker's scratch output, which is only valid during this
// call — and hands the pump the ready token when it was the last
// outstanding slot. Each slot is filled exactly once, by the worker
// that stepped its message; the atomic decrement orders every fill
// before the token, so the pump reads the slots race-free. Past its
// decrement a worker touches nothing of the frame but the token it may
// send: once the token is taken, the pump recycles the frame.
func (pf *pendingFrame) StepDone(i int, out []transport.Outgoing) {
	slot := &pf.slots[i]
	for _, o := range out {
		if o.To != pf.peer {
			continue // a data-centric server replies only to the requester
		}
		if slot.msg == nil {
			slot.msg = o.Msg
		} else {
			slot.rest = append(slot.rest, o.Msg)
		}
	}
	if slot.cls >= 0 {
		pf.met.Service[slot.cls].ObserveSince(slot.t0)
	}
	if pf.remaining.Add(-1) == 0 {
		pf.ready <- struct{}{}
	}
}

// appendReplies appends all replies in request order to buf. Only valid
// after ready.
func (pf *pendingFrame) appendReplies(buf []wire.Message) []wire.Message {
	for i := range pf.slots {
		if pf.slots[i].msg != nil {
			buf = append(buf, pf.slots[i].msg)
		}
		buf = append(buf, pf.slots[i].rest...)
	}
	return buf
}

// servePipelined handles one connection: the read loop (this
// goroutine) decodes frames and submits each inner message to its shard
// worker, and the write pump goroutine sends each frame's coalesced
// replies once its steps complete, in request order. The pump outlives
// the read loop until every queued frame is written, then closes the
// connection.
func (s *Server) servePipelined(conn net.Conn, peer types.ProcID) {
	frames := make(chan *pendingFrame, framePipelineDepth)
	s.wg.Add(1) // under serveConn's count, so never racing Close's Wait
	go s.writePump(conn, peer, frames)

	br := bufio.NewReaderSize(conn, connBufSize)
readLoop:
	for {
		env, err := wire.DecodeFrame(br)
		if err != nil {
			break // EOF, malformed frame, or closed
		}
		s.met.frameIn()
		inner := wire.Expand(env)
		if len(inner) == 0 {
			continue
		}
		pf := newPendingFrame(len(inner), peer, s.met)
		select {
		case frames <- pf:
		case <-s.closed:
			pf.release() // never reached the pump; don't leak it from the pool
			break readLoop
		}
		for i, e := range inner {
			// Per-key-class service latency: submit to reply-filled,
			// measured only for keyed messages on an instrumented server.
			slot := &pf.slots[i]
			slot.cls = -1
			if s.met != nil {
				if k, isKeyed := e.Msg.(wire.Keyed); isKeyed {
					slot.cls = metrics.KeyClass(k.Key)
					slot.t0 = time.Now()
				}
			}
			// The connection authenticates the sender: ignore the
			// claimed From and use the handshake identity.
			if !s.pool.Submit(peer, e.Msg, pf, i) {
				// Pool closed mid-frame: complete the slot empty so the
				// pump can drain and exit.
				slot.cls = -1
				pf.StepDone(i, nil)
			}
		}
	}
	close(frames)
}

// writePump is the connection's dedicated writer: it takes completed
// frames in request order and writes each frame's replies coalesced
// into batch frames (writeReplies), so concurrent shard workers never
// interleave writes on one socket. Completed frames are recycled into
// the frame pool, and the reply list is gathered into a pump-local
// reusable buffer.
//
// Replies accumulate in a buffered writer with two flush points, both
// chosen so no client ever waits on buffered bytes: before blocking —
// on a frame whose steps are still running, or on an empty pipeline —
// everything written so far is flushed; while completed frames are
// already queued, replies keep accumulating, amortizing one syscall
// over a burst. The one-reply-frame-per-request contract and request-
// order frame sequence are untouched: buffering delays bytes, never
// reorders or merges frames.
func (s *Server) writePump(conn net.Conn, peer types.ProcID, frames <-chan *pendingFrame) {
	defer s.wg.Done()
	defer s.dropConn(conn)
	bw := bufio.NewWriterSize(conn, connBufSize)
	var replyBuf []wire.Message
	broken := false
	flush := func() {
		if !broken && bw.Flush() != nil {
			broken = true
			_ = conn.Close() // stop the read loop too
		}
	}
	for pf := range frames {
		if broken {
			s.awaitAndRelease(pf) // keep draining so the read loop never blocks
			continue
		}
		select {
		case <-pf.ready:
		default:
			// This frame's steps are still running: flush what earlier
			// frames buffered, then wait.
			flush()
			select {
			case <-pf.ready:
			case <-s.closed:
				broken = true
				_ = conn.Close()
				s.awaitAndRelease(pf)
				continue
			}
			if broken {
				pf.release()
				continue
			}
		}
		replyBuf = pf.appendReplies(replyBuf[:0])
		pf.release()
		if err := writeReplies(bw, s.id, peer, replyBuf); err != nil {
			broken = true
			_ = conn.Close() // stop the read loop too
			continue
		}
		s.met.replies(len(replyBuf))
		if len(frames) == 0 {
			flush() // nothing completed is queued: the pipe would go idle
		}
	}
	flush()
}

// awaitAndRelease returns a dropped frame to the pool once its last
// fill has happened, taking the ready token — a frame still being
// filled by shard workers must not be recycled under them.
func (s *Server) awaitAndRelease(pf *pendingFrame) {
	select {
	case <-pf.ready:
		pf.release()
	default:
		// Workers are still filling slots (or the pool dropped the jobs
		// on Close and the token will never come): leave the frame to
		// the GC rather than risk recycling it mid-fill.
	}
}
