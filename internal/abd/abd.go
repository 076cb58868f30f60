// Package abd implements the classic Attiya–Bar-Noy–Dolev SWMR atomic
// register emulation over 2t+1 crash-prone servers ("Sharing memory
// robustly in message-passing systems", JACM 1995) — the baseline the
// paper's introduction measures itself against: in ABD every READ takes
// two communication round-trips (query + write-back), and every WRITE
// takes one.
//
// The implementation is deliberately minimal and tolerates only crash
// failures (b = 0), exactly like the original.
package abd

import (
	"errors"
	"fmt"
	"time"

	"luckystore/internal/node"
	"luckystore/internal/simnet"
	"luckystore/internal/storage"
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// DefaultOpTimeout bounds one operation, converting violated model
// assumptions into errors.
const DefaultOpTimeout = 30 * time.Second

// ErrOpTimeout is returned when an operation cannot gather a majority.
var ErrOpTimeout = errors.New("abd: operation timed out (majority unavailable?)")

// Config holds the ABD deployment parameters.
type Config struct {
	// T is the number of crash failures tolerated; S = 2t+1.
	T          int
	NumReaders int
	OpTimeout  time.Duration
}

// S returns the number of servers, 2t+1.
func (c Config) S() int { return 2*c.T + 1 }

// Quorum returns the majority size t+1.
func (c Config) Quorum() int { return c.T + 1 }

// Validate checks the parameters.
func (c Config) Validate() error {
	if c.T < 0 {
		return fmt.Errorf("abd config: t = %d must be non-negative", c.T)
	}
	if c.NumReaders < 0 {
		return fmt.Errorf("abd config: NumReaders = %d must be non-negative", c.NumReaders)
	}
	return nil
}

func (c Config) opTimeout() time.Duration {
	if c.OpTimeout > 0 {
		return c.OpTimeout
	}
	return DefaultOpTimeout
}

// Server is the ABD server automaton: one stored pair, update on
// write-if-newer, report on read.
type Server struct {
	c types.Tagged
}

// NewServer creates a server holding 〈ts0,⊥〉.
func NewServer() *Server { return &Server{c: types.Bottom()} }

// Step implements node.Automaton.
func (s *Server) Step(from types.ProcID, m wire.Message) []transport.Outgoing {
	if wire.Validate(m) != nil {
		return nil
	}
	switch v := m.(type) {
	case wire.ABDWrite:
		if s.c.Less(v.C) {
			s.c = v.C
		}
		return []transport.Outgoing{{To: from, Msg: wire.ABDWriteAck{Seq: v.Seq}}}
	case wire.ABDRead:
		return []transport.Outgoing{{To: from, Msg: wire.ABDReadAck{Seq: v.Seq, C: s.c}}}
	default:
		return nil
	}
}

// Writer is the ABD writer: one store round per WRITE.
type Writer struct {
	cfg Config
	ep  transport.Endpoint
	ts  types.TS
	seq int64
}

// NewWriter creates the writer client.
func NewWriter(cfg Config, ep transport.Endpoint) *Writer { return &Writer{cfg: cfg, ep: ep} }

// Write stores v: one round-trip to a majority.
func (w *Writer) Write(v types.Value) error {
	if v == "" {
		return errors.New("abd: cannot write the initial value ⊥")
	}
	w.ts++
	w.seq++
	c := types.Tagged{TS: w.ts, Val: v}
	if err := broadcast(w.ep, w.cfg.S(), wire.ABDWrite{Seq: w.seq, C: c}); err != nil {
		return err
	}
	return awaitWriteAcks(w.ep, w.cfg, w.seq)
}

// Rounds reports the (constant) round-trip complexity of an ABD WRITE.
func (w *Writer) Rounds() int { return 1 }

// Reader is the ABD reader: query round + write-back round.
type Reader struct {
	cfg Config
	ep  transport.Endpoint
	seq int64
}

// NewReader creates a reader client.
func NewReader(cfg Config, ep transport.Endpoint) *Reader { return &Reader{cfg: cfg, ep: ep} }

// Read returns the register value after the classic two phases.
func (r *Reader) Read() (types.Tagged, error) {
	deadline := time.NewTimer(r.cfg.opTimeout())
	defer deadline.Stop()

	// Phase 1: query a majority, adopt the highest pair.
	r.seq++
	if err := broadcast(r.ep, r.cfg.S(), wire.ABDRead{Seq: r.seq}); err != nil {
		return types.Tagged{}, err
	}
	best := types.Bottom()
	got := make(map[types.ProcID]bool, r.cfg.S())
	for len(got) < r.cfg.Quorum() {
		select {
		case env, ok := <-r.ep.Recv():
			if !ok {
				return types.Tagged{}, transport.ErrClosed
			}
			a, isAck := env.Msg.(wire.ABDReadAck)
			if !isAck || !env.From.IsServer() || a.Seq != r.seq || got[env.From] {
				continue
			}
			got[env.From] = true
			if best.Less(a.C) {
				best = a.C
			}
		case <-deadline.C:
			return types.Tagged{}, fmt.Errorf("abd READ query: %w", ErrOpTimeout)
		}
	}

	// Phase 2: write the adopted pair back to a majority.
	r.seq++
	if err := broadcast(r.ep, r.cfg.S(), wire.ABDWrite{Seq: r.seq, C: best}); err != nil {
		return types.Tagged{}, err
	}
	wbGot := make(map[types.ProcID]bool, r.cfg.S())
	for len(wbGot) < r.cfg.Quorum() {
		select {
		case env, ok := <-r.ep.Recv():
			if !ok {
				return types.Tagged{}, transport.ErrClosed
			}
			a, isAck := env.Msg.(wire.ABDWriteAck)
			if !isAck || !env.From.IsServer() || a.Seq != r.seq {
				continue
			}
			wbGot[env.From] = true
		case <-deadline.C:
			return types.Tagged{}, fmt.Errorf("abd READ write-back: %w", ErrOpTimeout)
		}
	}
	return best, nil
}

// Rounds reports the (constant) round-trip complexity of an ABD READ.
func (r *Reader) Rounds() int { return 2 }

func broadcast(ep transport.Endpoint, s int, m wire.Message) error {
	out := make([]transport.Outgoing, s)
	for i := range out {
		out[i] = transport.Outgoing{To: types.ServerID(i), Msg: m}
	}
	return transport.SendAll(ep, out)
}

func awaitWriteAcks(ep transport.Endpoint, cfg Config, seq int64) error {
	deadline := time.NewTimer(cfg.opTimeout())
	defer deadline.Stop()
	got := make(map[types.ProcID]bool, cfg.S())
	for len(got) < cfg.Quorum() {
		select {
		case env, ok := <-ep.Recv():
			if !ok {
				return transport.ErrClosed
			}
			a, isAck := env.Msg.(wire.ABDWriteAck)
			if !isAck || !env.From.IsServer() || a.Seq != seq {
				continue
			}
			got[env.From] = true
		case <-deadline.C:
			return fmt.Errorf("abd WRITE: %w", ErrOpTimeout)
		}
	}
	return nil
}

// Cluster wires an ABD deployment over a simulated network.
type Cluster struct {
	cfg     Config
	net     transport.Network
	sim     *simnet.Network
	servers storage.Servers
	writer  *Writer
	readers []*Reader
}

// NewCluster builds and starts an ABD cluster.
func NewCluster(cfg Config, simOpts ...simnet.Option) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ids := append(types.ServerIDs(cfg.S()), types.WriterID())
	ids = append(ids, types.ReaderIDs(cfg.NumReaders)...)
	sim, err := simnet.New(ids, simOpts...)
	if err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg, net: sim, sim: sim}
	c.servers, err = storage.StartServers(cfg.S(), func(i int) storage.ServerConfig {
		return storage.ServerConfig{
			ID:     types.ServerID(i),
			New:    func() node.Automaton { return NewServer() },
			Driver: node.NetDriver{Net: sim},
		}
	})
	if err != nil {
		c.Close()
		return nil, err
	}
	wep, err := sim.Endpoint(types.WriterID())
	if err != nil {
		c.Close()
		return nil, err
	}
	c.writer = NewWriter(cfg, wep)
	for i := 0; i < cfg.NumReaders; i++ {
		rep, err := sim.Endpoint(types.ReaderID(i))
		if err != nil {
			c.Close()
			return nil, err
		}
		c.readers = append(c.readers, NewReader(cfg, rep))
	}
	return c, nil
}

// Writer returns the writer client.
func (c *Cluster) Writer() *Writer { return c.writer }

// Reader returns the i-th reader client.
func (c *Cluster) Reader(i int) *Reader { return c.readers[i] }

// CrashServer crash-stops server i.
func (c *Cluster) CrashServer(i int) { c.servers[i].Crash() }

// Close stops all servers and the network.
func (c *Cluster) Close() {
	if c.net != nil {
		_ = c.net.Close()
	}
	_ = c.servers.Close()
}
