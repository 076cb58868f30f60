// Package twophase implements the Appendix C variant of the protocol
// (Figures 6–8, Propositions 5 and 6): every WRITE completes in at most
// two communication round-trips and every lucky READ is fast despite up
// to fr actual failures, at the price of S = 2t + b + min(b, fr) + 1
// servers (one more than optimal when b, fr > 0).
//
// Differences from the core algorithm (internal/core):
//
//   - the W phase is a single round (round 2) and always runs — there
//     is no fast-write path and no timer in the WRITE;
//   - servers keep no vw field;
//   - the writer ships the frozen set inside the W message instead of
//     the PW message, and servers act on it only when the sender is the
//     writer;
//   - the read fast predicate is fast(c) ::= |{i : w_i = c}| ≥ S−t−fr;
//   - the reader's write-back takes two rounds.
package twophase

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

// DefaultRoundTimeout mirrors core.DefaultRoundTimeout.
const DefaultRoundTimeout = 25 * time.Millisecond

// DefaultOpTimeout mirrors core.DefaultOpTimeout.
const DefaultOpTimeout = 30 * time.Second

// ErrOpTimeout is returned when an operation exceeds its bound.
var ErrOpTimeout = errors.New("twophase: operation timed out (more than t servers unresponsive?)")

// Config holds the deployment parameters of the two-phase variant.
type Config struct {
	// T and B are the failure thresholds (b ≤ t).
	T, B int
	// Fr is the number of actual failures despite which every lucky
	// READ must be fast (0 ≤ fr ≤ t).
	Fr         int
	NumReaders int
	// RoundTimeout is the READ round-1 timer; zero selects the default.
	RoundTimeout time.Duration
	// OpTimeout bounds one operation; zero selects the default.
	OpTimeout time.Duration
}

// S returns the server count 2t + b + min(b, fr) + 1 (Proposition 6).
func (c Config) S() int { return 2*c.T + c.B + min(c.B, c.Fr) + 1 }

// Quorum returns S − t.
func (c Config) Quorum() int { return c.S() - c.T }

// SafeThreshold returns b+1.
func (c Config) SafeThreshold() int { return c.B + 1 }

// FastW returns S − t − fr, the w-field witness count of the fast
// predicate (Fig. 7 line 5).
func (c Config) FastW() int { return c.S() - c.T - c.Fr }

// Thresholds adapts the configuration for the shared predicate
// machinery (core.View). FastPW and FastVW are set above S: the
// two-phase variant never uses them.
func (c Config) Thresholds() core.Thresholds {
	return core.Thresholds{
		S:         c.S(),
		Quorum:    c.Quorum(),
		Safe:      c.SafeThreshold(),
		FastPW:    c.S() + 1,
		FastVW:    c.S() + 1,
		InvalidPW: c.S() - c.B - c.T,
	}
}

// Validate checks the parameters.
func (c Config) Validate() error {
	switch {
	case c.T < 0:
		return fmt.Errorf("twophase config: t = %d must be non-negative", c.T)
	case c.B < 0 || c.B > c.T:
		return fmt.Errorf("twophase config: b = %d must satisfy 0 ≤ b ≤ t = %d", c.B, c.T)
	case c.Fr < 0 || c.Fr > c.T:
		return fmt.Errorf("twophase config: fr = %d must satisfy 0 ≤ fr ≤ t = %d", c.Fr, c.T)
	case c.NumReaders < 0:
		return fmt.Errorf("twophase config: NumReaders = %d must be non-negative", c.NumReaders)
	}
	return nil
}

func (c Config) roundTimeout() time.Duration {
	if c.RoundTimeout > 0 {
		return c.RoundTimeout
	}
	return DefaultRoundTimeout
}

func (c Config) opTimeout() time.Duration {
	if c.OpTimeout > 0 {
		return c.OpTimeout
	}
	return DefaultOpTimeout
}

// Server is the server automaton of Figure 8: pw and w fields, per
// reader tsr and frozen slots; frozen sets arrive inside the writer's
// W message.
type Server struct {
	pw, w    types.Tagged
	frozen   map[types.ProcID]types.FrozenPair
	readerTS map[types.ProcID]types.ReaderTS
}

// NewServer creates a server in its initial state.
func NewServer() *Server {
	return &Server{
		pw:       types.Bottom(),
		w:        types.Bottom(),
		frozen:   make(map[types.ProcID]types.FrozenPair),
		readerTS: make(map[types.ProcID]types.ReaderTS),
	}
}

// State returns the stored pairs (tests only; the cluster serializes
// automaton access while running).
func (s *Server) State() (pw, w types.Tagged) { return s.pw, s.w }

// Step implements node.Automaton.
func (s *Server) Step(from types.ProcID, m wire.Message) []transport.Outgoing {
	if wire.Validate(m) != nil {
		return nil
	}
	switch v := m.(type) {
	case wire.PW:
		if !from.IsWriter() {
			return nil
		}
		return s.onPW(from, v)
	case wire.Read:
		if !from.IsReader() {
			return nil
		}
		return s.onRead(from, v)
	case wire.W:
		if !from.IsWriter() && !from.IsReader() {
			return nil
		}
		return s.onW(from, v)
	default:
		return nil
	}
}

// onPW: Fig. 8 lines 3–6 — update pw/w, report newread; the PW message
// of this variant carries no frozen set.
func (s *Server) onPW(from types.ProcID, m wire.PW) []transport.Outgoing {
	update(&s.pw, m.PW)
	update(&s.w, m.W)
	var newread []types.ReadStamp
	for rj, tsr := range s.readerTS {
		if tsr > s.frozenTSR(rj) {
			newread = append(newread, types.ReadStamp{Reader: rj, TSR: tsr})
		}
	}
	return []transport.Outgoing{{To: from, Msg: wire.PWAck{TS: m.TS, NewRead: newread}}}
}

// onRead: Fig. 8 lines 7–9.
func (s *Server) onRead(from types.ProcID, m wire.Read) []transport.Outgoing {
	if m.TSR > s.readerTS[from] && m.Round > 1 {
		s.readerTS[from] = m.TSR
	}
	fz, ok := s.frozen[from]
	if !ok {
		fz = types.InitialFrozen()
	}
	return []transport.Outgoing{{To: from, Msg: wire.ReadAck{
		TSR: m.TSR, Round: m.Round,
		PW: s.pw, W: s.w, VW: types.Bottom(), Frozen: fz,
	}}}
}

// onW: Fig. 8 lines 10–15 — round 1 updates pw, round 2 additionally
// w; the frozen set applies only when the sender is the writer.
func (s *Server) onW(from types.ProcID, m wire.W) []transport.Outgoing {
	update(&s.pw, m.C)
	if m.Round > 1 {
		update(&s.w, m.C)
	}
	if from.IsWriter() {
		for _, f := range m.Frozen {
			if f.TSR >= s.readerTS[f.Reader] {
				s.frozen[f.Reader] = types.FrozenPair{PW: f.PW, TSR: f.TSR}
			}
		}
	}
	return []transport.Outgoing{{To: from, Msg: wire.WAck{Round: m.Round, Tag: m.Tag}}}
}

func (s *Server) frozenTSR(rj types.ProcID) types.ReaderTS {
	if f, ok := s.frozen[rj]; ok {
		return f.TSR
	}
	return types.ReaderTS0
}

func update(local *types.Tagged, c types.Tagged) {
	if local.Less(c) {
		*local = c
	}
}

// Writer implements the WRITE of Figure 6: PW round, freezevalues,
// then exactly one W round carrying the frozen set — two round-trips,
// always.
type Writer struct {
	cfg    Config
	ep     transport.Endpoint
	ts     types.TS
	pw, w  types.Tagged
	readTS map[types.ProcID]types.ReaderTS
	frozen []types.FrozenEntry
}

// NewWriter creates the writer client.
func NewWriter(cfg Config, ep transport.Endpoint) *Writer {
	return &Writer{
		cfg: cfg, ep: ep,
		pw: types.Bottom(), w: types.Bottom(),
		readTS: make(map[types.ProcID]types.ReaderTS),
	}
}

// Rounds reports the (constant) round-trip complexity of a WRITE in
// this variant.
func (w *Writer) Rounds() int { return 2 }

// Write stores v in exactly two communication round-trips.
func (w *Writer) Write(v types.Value) error {
	if v == "" {
		return core.ErrBottomValue
	}
	opDeadline := time.NewTimer(w.cfg.opTimeout())
	defer opDeadline.Stop()

	// PW round (Fig. 6 lines 3–6): no timer — the variant's writes are
	// never "fast", so there is nothing to wait extra for.
	w.ts++
	w.pw = types.Tagged{TS: w.ts, Val: v}
	if err := w.broadcast(wire.PW{TS: w.ts, PW: w.pw, W: w.w}); err != nil {
		return err
	}
	acks := make(map[types.ProcID]wire.PWAck, w.cfg.S())
	for len(acks) < w.cfg.Quorum() {
		select {
		case env, ok := <-w.ep.Recv():
			if !ok {
				return transport.ErrClosed
			}
			a, isAck := env.Msg.(wire.PWAck)
			if !isAck || !w.validServer(env.From) || a.TS != w.ts || wire.Validate(a) != nil {
				continue
			}
			if _, dup := acks[env.From]; !dup {
				acks[env.From] = a
			}
		case <-opDeadline.C:
			return fmt.Errorf("twophase WRITE(ts=%d) PW round: %w", w.ts, ErrOpTimeout)
		}
	}

	// Fig. 6 lines 7–10: freeze values, then ship them inside the W
	// message of this same write.
	w.freezeValues(acks)
	w.w = w.pw
	frozenOut := w.frozen
	w.frozen = nil
	if err := w.broadcast(wire.W{Round: 2, Tag: int64(w.ts), C: w.pw, Frozen: frozenOut}); err != nil {
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
			return fmt.Errorf("twophase WRITE(ts=%d) W round: %w", w.ts, ErrOpTimeout)
		}
	}
	return nil
}

// freezeValues mirrors Fig. 6 lines 13–15 (identical rule to the core
// algorithm).
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

// ReadMeta describes a completed two-phase READ.
type ReadMeta struct {
	TSR         types.ReaderTS
	QueryRounds int
	WroteBack   bool
	Returned    types.Tagged
}

// Rounds returns total round-trips (write-back adds two in this
// variant).
func (m ReadMeta) Rounds() int {
	if m.WroteBack {
		return m.QueryRounds + 2
	}
	return m.QueryRounds
}

// Fast reports a single round-trip READ.
func (m ReadMeta) Fast() bool { return m.Rounds() == 1 }

// Reader implements the READ of Figure 7.
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

// Read returns the register value.
func (r *Reader) Read() (types.Tagged, error) {
	opDeadline := time.NewTimer(r.cfg.opTimeout())
	defer opDeadline.Stop()

	r.tsr++
	view := core.NewViewWithThresholds(r.cfg.Thresholds(), r.tsr)

	var timer *time.Timer
	expired := false
	rnd := 0
	var sel types.Tagged
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
				return types.Tagged{}, fmt.Errorf("twophase READ(tsr=%d) round %d: %w", r.tsr, rnd, ErrOpTimeout)
			}
		}
		r.drainAcks(view, roundAcks, rnd)
		if c, ok := view.Select(); ok {
			sel = c
			break
		}
	}

	// Fig. 7 line 19: fast(c) ::= |{i : w_i = c}| ≥ S−t−fr.
	fast := view.CountW(sel) >= r.cfg.FastW()
	wroteBack := false
	if !fast || rnd > 1 {
		if err := r.writeBack(sel, opDeadline); err != nil {
			return types.Tagged{}, err
		}
		wroteBack = true
	}
	r.lastMeta = ReadMeta{TSR: r.tsr, QueryRounds: rnd, WroteBack: wroteBack, Returned: sel}
	return sel, nil
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

// writeBack runs the two-round write-back (Fig. 7 lines 24–26).
func (r *Reader) writeBack(c types.Tagged, opDeadline *time.Timer) error {
	for round := 1; round <= 2; round++ {
		if err := r.broadcast(wire.W{Round: round, Tag: int64(r.tsr), C: c}); err != nil {
			return err
		}
		got := make(map[types.ProcID]bool, r.cfg.S())
		for len(got) < r.cfg.Quorum() {
			select {
			case env, ok := <-r.ep.Recv():
				if !ok {
					return transport.ErrClosed
				}
				a, isAck := env.Msg.(wire.WAck)
				if !isAck || !env.From.IsServer() || a.Round != round || a.Tag != int64(r.tsr) {
					continue
				}
				got[env.From] = true
			case <-opDeadline.C:
				return fmt.Errorf("twophase READ(tsr=%d) write-back round %d: %w", r.tsr, round, ErrOpTimeout)
			}
		}
	}
	return nil
}

func (r *Reader) broadcast(m wire.Message) error {
	out := make([]transport.Outgoing, r.cfg.S())
	for i := range out {
		out[i] = transport.Outgoing{To: types.ServerID(i), Msg: m}
	}
	return transport.SendAll(r.ep, out)
}

// Cluster wires a two-phase deployment over a simulated network.
type Cluster struct {
	cfg     Config
	net     transport.Network
	sim     *simnet.Network
	servers storage.Servers
	writer  *Writer
	readers []*Reader
}

// NewCluster builds and starts a two-phase cluster.
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

// Close stops all servers and the network.
func (c *Cluster) Close() {
	if c.net != nil {
		_ = c.net.Close()
	}
	_ = c.servers.Close()
}
