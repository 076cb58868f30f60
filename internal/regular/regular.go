// Package regular implements the Appendix D variant (Proposition 7): a
// SWMR robust *regular* storage — property (4), the read hierarchy, is
// given up — in exchange for:
//
//   - tolerance of arbitrarily many malicious readers (servers ignore
//     every W message sent by a reader, so a forged write-back cannot
//     corrupt the register);
//   - maximal fast thresholds: every lucky WRITE is fast despite
//     fw = t − b failures and every lucky READ is fast despite fr = t
//     failures.
//
// Differences from the core algorithm: the W phase of a slow WRITE is a
// single round, readers never write back, and servers drop reader W
// messages (core.NewRegularServer).
package regular

import (
	"errors"
	"fmt"
	"time"

	"luckystore/internal/core"
	"luckystore/internal/node"
	"luckystore/internal/simnet"
	"luckystore/internal/storage"
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// ErrOpTimeout is returned when an operation exceeds its bound.
var ErrOpTimeout = errors.New("regular: operation timed out (more than t servers unresponsive?)")

// Config holds the deployment parameters. The fast-write threshold is
// fixed at its maximum fw = t − b (Proposition 7), so there is no Fw
// knob.
type Config struct {
	T, B         int
	NumReaders   int
	RoundTimeout time.Duration
	OpTimeout    time.Duration
}

// S returns the server count 2t + b + 1 (optimal resilience).
func (c Config) S() int { return 2*c.T + c.B + 1 }

// Quorum returns S − t.
func (c Config) Quorum() int { return c.S() - c.T }

// SafeThreshold returns b + 1.
func (c Config) SafeThreshold() int { return c.B + 1 }

// Fw returns the fast-write failure threshold t − b.
func (c Config) Fw() int { return c.T - c.B }

// Fr returns the fast-read failure threshold t.
func (c Config) Fr() int { return c.T }

// FastWriteAcks returns S − fw = t + 2b + 1.
func (c Config) FastWriteAcks() int { return c.S() - c.Fw() }

// Validate checks the parameters.
func (c Config) Validate() error {
	switch {
	case c.T < 0:
		return fmt.Errorf("regular config: t = %d must be non-negative", c.T)
	case c.B < 0 || c.B > c.T:
		return fmt.Errorf("regular config: b = %d must satisfy 0 ≤ b ≤ t = %d", c.B, c.T)
	case c.NumReaders < 0:
		return fmt.Errorf("regular config: NumReaders = %d must be non-negative", c.NumReaders)
	}
	return nil
}

// coreConfig maps to the core Config for threshold reuse.
func (c Config) coreConfig() core.Config {
	return core.Config{T: c.T, B: c.B, Fw: c.Fw(), NumReaders: c.NumReaders}
}

func (c Config) roundTimeout() time.Duration {
	if c.RoundTimeout > 0 {
		return c.RoundTimeout
	}
	return core.DefaultRoundTimeout
}

func (c Config) opTimeout() time.Duration {
	if c.OpTimeout > 0 {
		return c.OpTimeout
	}
	return core.DefaultOpTimeout
}

// Writer implements the Appendix D WRITE: PW round with the fast check
// at S − (t−b) acks, then a single W round when slow.
type Writer struct {
	cfg      Config
	ep       transport.Endpoint
	ts       types.TS
	pw, w    types.Tagged
	readTS   map[types.ProcID]types.ReaderTS
	frozen   []types.FrozenEntry
	lastMeta core.WriteMeta
}

// NewWriter creates the writer client.
func NewWriter(cfg Config, ep transport.Endpoint) *Writer {
	return &Writer{
		cfg: cfg, ep: ep,
		pw: types.Bottom(), w: types.Bottom(),
		readTS: make(map[types.ProcID]types.ReaderTS),
	}
}

// LastMeta returns metadata about the most recent WRITE.
func (w *Writer) LastMeta() core.WriteMeta { return w.lastMeta }

// Write stores v: one round-trip when lucky and at most t−b failures,
// otherwise two.
func (w *Writer) Write(v types.Value) error {
	if v == "" {
		return core.ErrBottomValue
	}
	opDeadline := time.NewTimer(w.cfg.opTimeout())
	defer opDeadline.Stop()

	w.ts++
	w.pw = types.Tagged{TS: w.ts, Val: v}
	if err := w.broadcast(wire.PW{TS: w.ts, PW: w.pw, W: w.w, Frozen: w.frozen}); err != nil {
		return err
	}
	timer := time.NewTimer(w.cfg.roundTimeout())
	defer timer.Stop()
	acks := make(map[types.ProcID]wire.PWAck, w.cfg.S())
	expired := false
	for len(acks) < w.cfg.S() && !(len(acks) >= w.cfg.Quorum() && expired) {
		select {
		case env, ok := <-w.ep.Recv():
			if !ok {
				return transport.ErrClosed
			}
			w.acceptPWAck(acks, env)
		case <-timer.C:
			expired = true
		case <-opDeadline.C:
			return fmt.Errorf("regular WRITE(ts=%d) PW round: %w", w.ts, ErrOpTimeout)
		}
	}
	w.drainPWAcks(acks)

	w.frozen = nil
	w.w = w.pw
	w.freezeValues(acks)

	if len(acks) >= w.cfg.FastWriteAcks() {
		w.lastMeta = core.WriteMeta{TS: w.ts, Rounds: 1, Fast: true, PWAcks: len(acks)}
		return nil
	}

	// Single W round (Appendix D removes the third round).
	if err := w.broadcast(wire.W{Round: 2, Tag: int64(w.ts), C: w.pw}); err != nil {
		return err
	}
	got := make(map[types.ProcID]bool, w.cfg.S())
	for len(got) < w.cfg.Quorum() {
		select {
		case env, ok := <-w.ep.Recv():
			if !ok {
				return transport.ErrClosed
			}
			a, isAck := env.Msg.(wire.WAck)
			if !isAck || !w.validServer(env.From) || a.Round != 2 || a.Tag != int64(w.ts) {
				continue
			}
			got[env.From] = true
		case <-opDeadline.C:
			return fmt.Errorf("regular WRITE(ts=%d) W round: %w", w.ts, ErrOpTimeout)
		}
	}
	w.lastMeta = core.WriteMeta{TS: w.ts, Rounds: 2, Fast: false, PWAcks: len(acks)}
	return nil
}

func (w *Writer) acceptPWAck(acks map[types.ProcID]wire.PWAck, env wire.Envelope) {
	a, ok := env.Msg.(wire.PWAck)
	if !ok || !w.validServer(env.From) || a.TS != w.ts || wire.Validate(a) != nil {
		return
	}
	if _, dup := acks[env.From]; !dup {
		acks[env.From] = a
	}
}

func (w *Writer) drainPWAcks(acks map[types.ProcID]wire.PWAck) {
	for {
		select {
		case env, ok := <-w.ep.Recv():
			if !ok {
				return
			}
			w.acceptPWAck(acks, env)
		default:
			return
		}
	}
}

func (w *Writer) freezeValues(acks map[types.ProcID]wire.PWAck) {
	reported := make(map[types.ProcID][]types.ReaderTS)
	for _, a := range acks {
		seen := make(map[types.ProcID]bool, len(a.NewRead))
		for _, rs := range a.NewRead {
			if seen[rs.Reader] {
				continue
			}
			seen[rs.Reader] = true
			if rs.TSR > w.readTS[rs.Reader] {
				reported[rs.Reader] = append(reported[rs.Reader], rs.TSR)
			}
		}
	}
	for rj, tsrs := range reported {
		if len(tsrs) < w.cfg.SafeThreshold() {
			continue
		}
		nth, ok := types.NthHighest(tsrs, w.cfg.B)
		if !ok {
			continue
		}
		w.readTS[rj] = nth
		w.frozen = append(w.frozen, types.FrozenEntry{Reader: rj, PW: w.pw, TSR: nth})
	}
}

func (w *Writer) broadcast(m wire.Message) error {
	out := make([]transport.Outgoing, w.cfg.S())
	for i := range out {
		out[i] = transport.Outgoing{To: types.ServerID(i), Msg: m}
	}
	return transport.SendAll(w.ep, out)
}

func (w *Writer) validServer(id types.ProcID) bool {
	return id.IsServer() && id.Index() < w.cfg.S()
}

// ReadMeta describes a completed regular READ (no write-back exists in
// this variant, so Rounds == QueryRounds).
type ReadMeta struct {
	TSR         types.ReaderTS
	QueryRounds int
	Returned    types.Tagged
}

// Rounds returns the READ's round-trip count.
func (m ReadMeta) Rounds() int { return m.QueryRounds }

// Fast reports a single round-trip READ.
func (m ReadMeta) Fast() bool { return m.Rounds() == 1 }

// Reader implements the Appendix D READ: the core READ loop without
// the write-back.
type Reader struct {
	cfg      Config
	ep       transport.Endpoint
	id       types.ProcID
	tsr      types.ReaderTS
	lastMeta ReadMeta
}

// NewReader creates reader client id.
func NewReader(cfg Config, id types.ProcID, ep transport.Endpoint) *Reader {
	return &Reader{cfg: cfg, ep: ep, id: id}
}

// LastMeta returns metadata about the most recent READ.
func (r *Reader) LastMeta() ReadMeta { return r.lastMeta }

// Read returns the register value with regular semantics.
func (r *Reader) Read() (types.Tagged, error) {
	opDeadline := time.NewTimer(r.cfg.opTimeout())
	defer opDeadline.Stop()

	r.tsr++
	view := core.NewViewWithThresholds(r.cfg.coreConfig().Thresholds(), r.tsr)

	var timer *time.Timer
	expired := false
	rnd := 0
	for {
		rnd++
		if err := r.broadcast(wire.Read{TSR: r.tsr, Round: rnd}); err != nil {
			return types.Tagged{}, err
		}
		if rnd == 1 {
			timer = time.NewTimer(r.cfg.roundTimeout())
			defer timer.Stop()
		}
		roundAcks := make(map[types.ProcID]bool, r.cfg.S())
		for len(roundAcks) < r.cfg.S() &&
			!(len(roundAcks) >= r.cfg.Quorum() && (rnd > 1 || expired)) {
			select {
			case env, ok := <-r.ep.Recv():
				if !ok {
					return types.Tagged{}, transport.ErrClosed
				}
				r.acceptAck(view, roundAcks, rnd, env)
			case <-timer.C:
				expired = true
			case <-opDeadline.C:
				return types.Tagged{}, fmt.Errorf("regular READ(tsr=%d) round %d: %w", r.tsr, rnd, ErrOpTimeout)
			}
		}
		r.drainAcks(view, roundAcks, rnd)
		if c, ok := view.Select(); ok {
			r.lastMeta = ReadMeta{TSR: r.tsr, QueryRounds: rnd, Returned: c}
			return c, nil
		}
	}
}

func (r *Reader) acceptAck(view *core.View, roundAcks map[types.ProcID]bool, rnd int, env wire.Envelope) {
	a, ok := env.Msg.(wire.ReadAck)
	if !ok || !env.From.IsServer() || env.From.Index() >= r.cfg.S() ||
		a.TSR != r.tsr || wire.Validate(a) != nil || a.Round > rnd {
		return
	}
	if a.Round == rnd {
		roundAcks[env.From] = true
	}
	view.Update(env.From, a.Round, a.PW, a.W, a.VW, a.Frozen)
}

func (r *Reader) drainAcks(view *core.View, roundAcks map[types.ProcID]bool, rnd int) {
	for {
		select {
		case env, ok := <-r.ep.Recv():
			if !ok {
				return
			}
			r.acceptAck(view, roundAcks, rnd, env)
		default:
			return
		}
	}
}

func (r *Reader) broadcast(m wire.Message) error {
	out := make([]transport.Outgoing, r.cfg.S())
	for i := range out {
		out[i] = transport.Outgoing{To: types.ServerID(i), Msg: m}
	}
	return transport.SendAll(r.ep, out)
}

// Cluster wires a regular-variant deployment over a simulated network.
// Each server is a storage.Server, which owns its crash/restart
// lifecycle.
type Cluster struct {
	cfg     Config
	net     transport.Network
	sim     *simnet.Network
	servers storage.Servers
	writer  *Writer
	readers []*Reader
}

// NewCluster builds and starts a regular-variant cluster. Servers keep
// their automata in memory only; see NewDurableCluster for disk-backed
// restarts.
func NewCluster(cfg Config, simOpts ...simnet.Option) (*Cluster, error) {
	return newCluster(cfg, nil, simOpts...)
}

// NewDurableCluster builds a regular-variant cluster whose servers
// write through storage backends from p (one per server) before
// acknowledging, and whose RestartServer recovers by WAL replay.
func NewDurableCluster(cfg Config, p storage.Provider, simOpts ...simnet.Option) (*Cluster, error) {
	return newCluster(cfg, p, simOpts...)
}

func newCluster(cfg Config, p storage.Provider, simOpts ...simnet.Option) (*Cluster, error) {
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
			ID:       types.ServerID(i),
			New:      func() node.Automaton { return core.NewRegularServer() },
			Driver:   node.NetDriver{Net: sim},
			Provider: p,
		}
	})
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("regular: %w", err)
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
		c.readers = append(c.readers, NewReader(cfg, types.ReaderID(i), rep))
	}
	return c, nil
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Writer returns the writer client.
func (c *Cluster) Writer() *Writer { return c.writer }

// Reader returns the i-th reader client.
func (c *Cluster) Reader(i int) *Reader { return c.readers[i] }

// Sim returns the underlying simulated network.
func (c *Cluster) Sim() *simnet.Network { return c.sim }

// CrashServer crash-stops server i.
func (c *Cluster) CrashServer(i int) { c.servers[i].Crash() }

// RestartServer restarts server i after a crash — crash-recovery with
// stable storage (storage.Server.Restart). With a NewDurableCluster
// backend, "stable storage" is the server's WAL: a fresh automaton is
// rebuilt by replay, as a real process restart would. The default keeps
// the automaton in memory, which models stable storage only for
// in-process crashes. For use by one coordinating goroutine, like the
// other fault hooks.
func (c *Cluster) RestartServer(i int) error { return c.servers.Restart(i, false) }

// RestartServerFresh restarts server i with a brand-new automaton and
// a wiped backend — the only amnesiac recovery, which schedules must
// count against b.
func (c *Cluster) RestartServerFresh(i int) error { return c.servers.Restart(i, true) }

// SwapServerAutomaton crash-stops server i and brings it back running
// the given automaton (an internal/fault Byzantine behavior, for chaos
// schedules). The swapped-in automaton runs without storage; the
// backend keeps the last correct durable state for a later restart.
func (c *Cluster) SwapServerAutomaton(i int, a node.Automaton) error { return c.servers.Swap(i, a) }

// Close stops all servers and the network, then closes the storage
// backends.
func (c *Cluster) Close() {
	if c.net != nil {
		_ = c.net.Close()
	}
	_ = c.servers.Close()
}
