package core

import (
	"fmt"

	"luckystore/internal/node"
	"luckystore/internal/simnet"
	"luckystore/internal/storage"
	"luckystore/internal/transport"
	"luckystore/internal/types"
)

// Cluster wires S server automata, WritersN() writers and NumReaders
// readers over a network, owning every goroutine it starts. It is the
// unit the examples, tests and experiments operate on. Each server is a
// storage.Server, which owns its crash/restart lifecycle.
type Cluster struct {
	cfg     Config
	net     transport.Network
	sim     *simnet.Network // non-nil when the cluster built its own simnet
	servers storage.Servers
	writers []*Writer
	readers []*Reader
}

// ClusterOption configures a Cluster.
type ClusterOption func(*clusterOpts)

type clusterOpts struct {
	net       transport.Network
	sim       *simnet.Network
	automata  map[int]node.Automaton
	dontStart map[int]bool
	store     storage.Provider
}

// WithNetwork runs the cluster over an externally built network; the
// cluster still closes it on Close. Use this to keep a handle on a
// simnet for delay/hold control.
func WithNetwork(n transport.Network) ClusterOption {
	return func(o *clusterOpts) {
		o.net = n
		if s, ok := n.(*simnet.Network); ok {
			o.sim = s
		}
	}
}

// WithServerAutomaton substitutes the automaton of server i — the hook
// used to install Byzantine behaviors from internal/fault.
func WithServerAutomaton(i int, a node.Automaton) ClusterOption {
	return func(o *clusterOpts) { o.automata[i] = a }
}

// WithCrashedServer starts the cluster with server i already crashed
// (it never starts stepping): an initially crash-faulty server.
func WithCrashedServer(i int) ClusterOption {
	return func(o *clusterOpts) { o.dontStart[i] = true }
}

// WithStorage gives every server a durable backend from the provider
// (one per server, named by server identity): state-mutating messages
// are logged and committed before their replies leave the server, any
// existing records are replayed into the automaton at startup, and
// RestartServer recovers from the backend instead of trusting what
// the dead process left in memory. Servers whose automata were
// substituted via WithServerAutomaton run without storage — a
// Byzantine automaton has no meaningful durable state.
func WithStorage(p storage.Provider) ClusterOption {
	return func(o *clusterOpts) { o.store = p }
}

// NewCluster builds and starts a cluster for cfg.
func NewCluster(cfg Config, opts ...ClusterOption) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	o := &clusterOpts{
		automata:  make(map[int]node.Automaton),
		dontStart: make(map[int]bool),
	}
	for _, opt := range opts {
		opt(o)
	}

	ids := make([]types.ProcID, 0, cfg.S()+cfg.NumReaders+cfg.WritersN())
	ids = append(ids, types.ServerIDs(cfg.S())...)
	ids = append(ids, types.WriterIDs(cfg.WritersN())...)
	ids = append(ids, types.ReaderIDs(cfg.NumReaders)...)

	c := &Cluster{cfg: cfg}
	if o.net != nil {
		c.net, c.sim = o.net, o.sim
	} else {
		sim, err := simnet.New(ids)
		if err != nil {
			return nil, fmt.Errorf("cluster network: %w", err)
		}
		c.net, c.sim = sim, sim
	}

	for i := 0; i < cfg.S(); i++ {
		sc := storage.ServerConfig{
			ID:       types.ServerID(i),
			New:      func() node.Automaton { return NewServer() },
			Driver:   node.NetDriver{Net: c.net},
			Provider: o.store,
		}
		a := o.automata[i]
		if a != nil {
			sc.Provider = nil
		}
		srv, err := storage.NewServer(sc)
		if err == nil {
			c.servers = append(c.servers, srv)
			switch {
			case o.dontStart[i]:
			case a != nil:
				err = srv.Swap(a) // runs a in place of the correct server, without storage
			default:
				err = srv.Start()
			}
		}
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("cluster: %w", err)
		}
	}

	for i := 0; i < cfg.WritersN(); i++ {
		wid := types.WriterIDN(i)
		wep, err := c.net.Endpoint(wid)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("cluster writer %s: %w", wid, err)
		}
		c.writers = append(c.writers, NewWriter(cfg, wid, wep))
	}

	for i := 0; i < cfg.NumReaders; i++ {
		rep, err := c.net.Endpoint(types.ReaderID(i))
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("cluster reader %d: %w", i, err)
		}
		c.readers = append(c.readers, NewReader(cfg, types.ReaderID(i), rep))
	}
	return c, nil
}

// ServerBackend returns server i's storage backend, nil when the
// cluster runs without WithStorage (or the automaton was substituted).
func (c *Cluster) ServerBackend(i int) storage.Backend { return c.servers[i].Backend() }

// Config returns the cluster's configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Writer returns the canonical writer client (writer 0): the only one
// in single-writer deployments.
func (c *Cluster) Writer() *Writer { return c.writers[0] }

// WriterN returns the i-th writer client; NumWriters gives the count.
func (c *Cluster) WriterN(i int) *Writer { return c.writers[i] }

// NumWriters returns the number of writer clients the cluster runs.
func (c *Cluster) NumWriters() int { return len(c.writers) }

// Reader returns the i-th reader client.
func (c *Cluster) Reader(i int) *Reader { return c.readers[i] }

// Sim returns the underlying simulated network, or nil when the
// cluster runs on another transport.
func (c *Cluster) Sim() *simnet.Network { return c.sim }

// ServerAutomaton returns the automaton of server i (for state
// assertions in tests; a *Server unless substituted).
func (c *Cluster) ServerAutomaton(i int) node.Automaton { return c.servers[i].Automaton() }

// CrashServer crash-stops server i. It is idempotent.
func (c *Cluster) CrashServer(i int) { c.servers[i].Crash() }

// CrashServerAfterSteps schedules server i to crash after n more
// processed messages.
func (c *Cluster) CrashServerAfterSteps(i, n int) { c.servers[i].CrashAfterSteps(n) }

// RestartServer restarts server i (storage.Server.Restart): the
// crash-recovery-with-stable-storage transition, so the restarted
// server is merely slow, not faulty, in the model's terms. With a
// WithStorage backend the automaton is rebuilt by replaying the
// server's WAL; without one the last correct automaton is kept.
//
// Restart methods are for use by one coordinating goroutine (a test or
// a chaos schedule); they do not synchronize with each other.
func (c *Cluster) RestartServer(i int) error { return c.servers.Restart(i, false) }

// RestartServerFresh restarts server i with a brand-new automaton AND
// a wiped backend (storage.Server.RestartFresh): the only amnesiac
// path, which schedules must count against b.
func (c *Cluster) RestartServerFresh(i int) error { return c.servers.Restart(i, true) }

// SwapServerAutomaton crash-stops server i and brings it back running
// the given automaton without storage (storage.Server.Swap) — the hook
// chaos schedules use to turn a correct server Byzantine mid-run.
func (c *Cluster) SwapServerAutomaton(i int, a node.Automaton) error { return c.servers.Swap(i, a) }

// Close stops every server and shuts the network down, joining all
// goroutines the cluster started, then closes the storage backends
// (flushing anything pending).
func (c *Cluster) Close() {
	if c.net != nil {
		_ = c.net.Close() // closing endpoints unblocks every runner
	}
	_ = c.servers.Close()
}
