package storage

import (
	"errors"
	"fmt"
	"sync"

	"luckystore/internal/metrics"
	"luckystore/internal/node"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// Driver steps a server process's shard automata as process id: the
// StepPool stepping them, plus a stop that halts it as a crash and
// waits. node.NetDriver runs it on an in-process network endpoint;
// tcpnet.Binding serves it on a fixed TCP address.
type Driver interface {
	Start(id types.ProcID, shards []node.Automaton, route func(wire.Message) int) (*node.StepPool, func(), error)
}

// ServerConfig describes one server process.
type ServerConfig struct {
	// ID is the server's process id; it also names its backend.
	ID types.ProcID
	// New builds a correct automaton with empty state. A result with
	// Shards and Route methods (keyed.ShardedServer) is stepped one
	// worker per shard, any other on one worker.
	New    func() node.Automaton
	Driver Driver
	// Provider opens the server's backend; nil keeps state in memory.
	Provider Provider
	// Reopen closes the backend at every crash and reopens it from
	// Provider at restart — a real process's file handles die with it,
	// and reopening a data directory runs its crash recovery. Without
	// it the open backend survives a crash: memory standing in for a
	// disk.
	Reopen bool
	// Metrics, when set, receives the WAL instruments (DurableMetrics,
	// and FileMetrics for backends that take them) once a backend opens.
	Metrics *metrics.Registry
}

// Server is one server process and its whole lifecycle. It builds the
// process's automaton, opens and recovers its backend, drives it, and
// owns every transition after that: Crash, CrashAfterSteps, Restart,
// RestartFresh, Swap and Close. Each transition runs in one order —
// stop stepping, then touch the backend, then start — so a restart
// never replays a WAL the old process can still append to (which
// would bring the server back without a record it had acknowledged:
// an amnesiac restart the model never counted against b).
//
// Transitions are for one coordinating goroutine (a cluster, a chaos
// schedule); Automaton, Pool and QueueLen may be called concurrently
// with them.
type Server struct {
	cfg  ServerConfig
	proc node.Automaton // the correct process: what a warm restart without a backend revives
	back Backend        // nil without a Provider, and while a Reopen server is down
	dm   *DurableMetrics

	mu   sync.Mutex
	auto node.Automaton // what is stepped now, unwrapped: proc or a swapped-in automaton
	pool *node.StepPool // nil while down
	stop func()
}

// sharded is a process split into shards stepped in parallel.
type sharded interface {
	Shards() []node.Automaton
	Route() func(wire.Message) int
}

// NewServer builds the process and recovers whatever its backend
// already holds (nothing on a fresh provider, the pre-crash state on a
// reopened data directory). It does not start stepping: Start does,
// and a server never started is initially crashed.
func NewServer(cfg ServerConfig) (*Server, error) {
	s := &Server{cfg: cfg}
	if err := s.recover(false); err != nil {
		_ = s.release()
		return nil, fmt.Errorf("server %s storage: %w", cfg.ID, err)
	}
	s.auto = s.proc
	return s, nil
}

// StartServers builds and starts servers 0..n-1, configured by cfg(i).
// On error it closes the servers already started.
func StartServers(n int, cfg func(i int) ServerConfig) (Servers, error) {
	ss := make(Servers, 0, n)
	for i := 0; i < n; i++ {
		s, err := NewServer(cfg(i))
		if err == nil {
			if err = s.Start(); err != nil {
				_ = s.Close()
			}
		}
		if err != nil {
			_ = ss.Close()
			return nil, err
		}
		ss = append(ss, s)
	}
	return ss, nil
}

// Start starts stepping the server's correct process.
func (s *Server) Start() error { return s.start(s.proc, true) }

// Crash stops the server as a crash failure: no further step starts.
// A Reopen server also releases its backend. Crash is idempotent.
func (s *Server) Crash() {
	s.mu.Lock()
	stop := s.stop
	s.pool, s.stop = nil, nil
	s.mu.Unlock()
	if stop != nil {
		stop()
	}
	if s.cfg.Reopen {
		_ = s.release() // a faulted disk fails its final flush by design
	}
}

// CrashAfterSteps schedules a crash after n more processed messages
// (node.StepPool.CrashAfterSteps); a no-op on a server that is down.
func (s *Server) CrashAfterSteps(n int) {
	if p := s.Pool(); p != nil {
		p.CrashAfterSteps(n)
	}
}

// Restart crash-stops the server and brings it back with stable
// storage: merely slow, not faulty, in the model's terms. With a
// backend a fresh automaton is rebuilt by replaying it (the in-memory
// state died with the process); without one the last correct automaton
// is kept, which models stable storage only for in-process crashes.
// Messages still queued in an in-process inbox are processed after the
// restart (they were in transit).
func (s *Server) Restart() error { return s.restart(false) }

// RestartFresh crash-stops the server and brings it back with a new
// automaton and a wiped backend: recovery with NO stable storage, the
// only amnesiac path. An amnesiac server answers protocol-correctly
// from initial state, which the model can only classify as Byzantine —
// schedules must count fresh restarts against b.
func (s *Server) RestartFresh() error { return s.restart(true) }

func (s *Server) restart(fresh bool) error {
	s.Crash()
	if err := s.recover(fresh); err != nil {
		return fmt.Errorf("restart server %s: %w", s.cfg.ID, err)
	}
	return s.Start()
}

// Swap crash-stops the server and brings it back running a — the hook
// chaos schedules use to turn a correct server Byzantine (an
// internal/fault behavior) mid-run. a runs on one worker without
// storage; the backend keeps the last correct durable state, which a
// later Restart recovers.
func (s *Server) Swap(a node.Automaton) error {
	s.Crash()
	return s.start(a, false)
}

// Backend returns the server's open backend, nil without a Provider or
// while a Reopen server is down.
func (s *Server) Backend() Backend { return s.back }

// Automaton returns the automaton being stepped, unwrapped from its
// storage: the correct process, or a swapped-in one.
func (s *Server) Automaton() node.Automaton {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.auto
}

// Pool returns the pool stepping the server, nil while it is down.
func (s *Server) Pool() *node.StepPool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pool
}

// QueueLen reports the messages queued on the server's shard workers,
// not yet stepped: the live backpressure signal.
func (s *Server) QueueLen() int {
	p := s.Pool()
	if p == nil {
		return 0
	}
	n := 0
	for i := 0; i < p.NumShards(); i++ {
		n += p.QueueLen(i)
	}
	return n
}

// Close stops the server for good, then closes its backend (flushing
// anything pending) and returns that close's error.
func (s *Server) Close() error {
	s.Crash()
	return s.release()
}

// recover touches the backend between a stop and a start: it opens the
// backend if none is open, heals one that survived the crash (the
// restarted process got a working disk back), and rebuilds s.proc
// from it — or, when fresh, wipes it and starts s.proc empty.
func (s *Server) recover(fresh bool) error {
	if s.cfg.Provider == nil {
		if fresh || s.proc == nil {
			s.proc = s.cfg.New()
		}
		return nil
	}
	if s.back == nil {
		back, err := s.cfg.Provider.Open(string(s.cfg.ID))
		if err != nil {
			return err
		}
		if reg := s.cfg.Metrics; reg != nil {
			s.dm = NewDurableMetrics(reg)
			if fb, ok := back.(interface{ SetMetrics(*FileMetrics) }); ok {
				fb.SetMetrics(NewFileMetrics(reg))
			}
		}
		s.back = back
	} else if h, ok := s.back.(interface{ Heal() }); ok {
		h.Heal()
	}
	s.proc = s.cfg.New()
	if fresh {
		return s.back.Wipe()
	}
	_, err := Recover(s.back, s.proc)
	return err
}

// start drives a: split into its shards, each writing through the
// backend when durable, then handed to the driver.
func (s *Server) start(a node.Automaton, durable bool) error {
	shards := []node.Automaton{a}
	var route func(wire.Message) int
	if sh, ok := a.(sharded); ok {
		shards, route = sh.Shards(), sh.Route()
	}
	if durable && s.back != nil {
		for j, x := range shards {
			d := NewDurable(x, s.back, s.cfg.ID)
			d.SetMetrics(s.dm)
			shards[j] = d
		}
	}
	pool, stop, err := s.cfg.Driver.Start(s.cfg.ID, shards, route)
	if err != nil {
		return fmt.Errorf("start server %s: %w", s.cfg.ID, err)
	}
	s.mu.Lock()
	s.auto, s.pool, s.stop = a, pool, stop
	s.mu.Unlock()
	return nil
}

func (s *Server) release() error {
	if s.back == nil {
		return nil
	}
	err := s.back.Close()
	s.back = nil
	return err
}

// Servers indexes a cluster's server processes by server number.
type Servers []*Server

// At returns server i, or an error when i is out of range.
func (ss Servers) At(i int) (*Server, error) {
	if i < 0 || i >= len(ss) {
		return nil, fmt.Errorf("server %d out of range [0,%d)", i, len(ss))
	}
	return ss[i], nil
}

// Restart restarts server i: fresh (RestartFresh) or warm (Restart).
func (ss Servers) Restart(i int, fresh bool) error {
	s, err := ss.At(i)
	if err != nil {
		return err
	}
	if fresh {
		return s.RestartFresh()
	}
	return s.Restart()
}

// Swap brings server i back running a (Server.Swap).
func (ss Servers) Swap(i int, a node.Automaton) error {
	s, err := ss.At(i)
	if err != nil {
		return err
	}
	return s.Swap(a)
}

// Close closes every server and joins their backend close errors.
func (ss Servers) Close() error {
	var errs []error
	for _, s := range ss {
		if s != nil {
			errs = append(errs, s.Close())
		}
	}
	return errors.Join(errs...)
}
