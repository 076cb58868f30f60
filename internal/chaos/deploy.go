package chaos

// Deployment adapters: one fault surface over every way this repo can
// run the protocol. There are two: single (one cluster: core, kv,
// regular, tcpkv) and fleet (clusters behind a router: router,
// tcprouter). Each embeds the matching workload driver — so the engine
// generates identical traffic everywhere — and exposes the same
// per-cluster crash / restart / Byzantine-swap surface (faults) plus,
// when the deployment is simulated, the simnet for network faults.

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"luckystore"
	"luckystore/internal/checker"
	"luckystore/internal/core"
	"luckystore/internal/fault"
	"luckystore/internal/kv"
	"luckystore/internal/node"
	"luckystore/internal/regular"
	"luckystore/internal/ring"
	"luckystore/internal/router"
	"luckystore/internal/simnet"
	"luckystore/internal/storage"
	"luckystore/internal/tcpnet"
	"luckystore/internal/types"
	"luckystore/internal/workload"
)

// Deployment is a running system the chaos engine can hurt. All fault
// methods are called from the engine's single schedule goroutine.
type Deployment interface {
	workload.Driver
	// Kind names the deployment flavor ("core", "kv", "tcpkv",
	// "regular").
	Kind() string
	// Servers reports the server count S.
	Servers() int
	// Budget reports the deployment's failure model (t, b).
	Budget() (t, b int)
	// Net returns the simulated network for partition/link faults, or
	// nil when the deployment runs over real sockets — the engine
	// skips network actions there (a real network is not scriptable).
	Net() *simnet.Network
	// Crash stops server i.
	Crash(i int) error
	// Restart brings server i back. fresh discards its state; some
	// deployments (ColdRestarts) can only restart fresh.
	Restart(i int, fresh bool) error
	// ColdRestarts reports whether every restart loses state (a real
	// process restart), which the engine budgets against b: an
	// amnesiac server answers correctly from initial state, which the
	// model can only classify as Byzantine.
	ColdRestarts() bool
	// Swap replaces server i with the named Byzantine behavior.
	Swap(i int, behavior string, seed int64) error
	// Check verifies a recorded history against the deployment's
	// consistency contract (atomicity, or regularity for the regular
	// variant), per key.
	Check(ops []checker.Op) []checker.Violation
	// Close tears the deployment down.
	Close()
}

// DiskFaulter is the optional Deployment capability behind
// ActDiskFault: deployments whose servers write through injectable
// storage backends arm the named fault (storage.FaultTornWrite or
// storage.FaultFsyncError) on server i's disk. The fault fires on the
// server's next mutating operation, muting it; the deployment's
// Restart must heal (or reopen) the disk before recovering from it.
type DiskFaulter interface {
	DiskFault(i int, kind string) error
}

// serverName is the per-server backend name used with storage
// providers across every deployment ("s0", "s1", …).
func serverName(i int) string { return string(types.ServerID(i)) }

// simFaultProvider builds the injectable in-memory storage the simnet
// deployments give their servers: memory backends (the "disk" survives
// in-process restarts) behind fault wrappers the schedule can arm.
func simFaultProvider(factory func() storage.Automaton) *storage.FaultProvider {
	return storage.NewFaultProvider(storage.NewMemProvider(factory))
}

// Rebalancer is the optional Deployment capability behind the fleet
// actions (ActJoinCluster, ActRemoveCluster): scale-out router
// deployments implement it; single-cluster deployments skip fleet
// events benignly.
type Rebalancer interface {
	// JoinCluster adds one fresh cluster to the fleet.
	JoinCluster() error
	// RemoveCluster retires the i-th active cluster (sorted order,
	// wrapped modulo the active count by the caller's schedule).
	RemoveCluster(i int) error
	// NumClusters reports the active cluster count.
	NumClusters() int
}

// DefaultConfig is the resilience configuration the stock deployments
// use: t=2, b=1 (S = 6 servers), fw=0 — room for one Byzantine server
// or one amnesiac restart plus one crash, with fr = 1. The short round
// timeout keeps slow paths quick under scripted asynchrony.
func DefaultConfig(readers int) core.Config {
	return core.Config{
		T: 2, B: 1, Fw: 0, NumReaders: readers,
		RoundTimeout: 8 * time.Millisecond,
		OpTimeout:    20 * time.Second,
	}
}

// behaviorFor builds a named Byzantine behavior. keyed lifts it to the
// multi-register wire protocol.
func behaviorFor(name string, seed int64, keyed bool) (node.Automaton, error) {
	var b fault.Behavior
	switch name {
	case "mute":
		b = fault.Mute()
	case "forge":
		b = fault.ForgeHighTS(types.TS(1_000_000+seed%1000), types.Value(fmt.Sprintf("forged-%d", seed)))
	case "stale":
		b = fault.StaleBottom()
	case "liar":
		b = fault.RandomLiar(seed)
	case "equivocate":
		b = fault.Equivocator(map[types.ProcID]types.Tagged{
			types.ReaderID(0): {TS: 900_000, Val: "eq0"},
			types.ReaderID(1): {TS: 900_001, Val: "eq1"},
		}, types.Bottom())
	default:
		return nil, fmt.Errorf("chaos: unknown behavior %q", name)
	}
	if keyed {
		b = fault.Keyed(b)
	}
	return b, nil
}

// ---- one cluster's fault surface ----

// servers is the restartable server set of one cluster: core.Cluster,
// regular.Cluster, kv.Store and tcpCluster, each a set of
// storage.Server lifecycles underneath.
type servers interface {
	CrashServer(i int)
	RestartServer(i int) error
	RestartServerFresh(i int) error
	SwapServerAutomaton(i int, a node.Automaton) error
}

// faults is the fault surface of one cluster, the same for every
// deployment: single-cluster deployments embed it, and both router
// fleets apply it to every active cluster.
type faults struct {
	srv   servers
	keyed bool                   // Byzantine behaviors speak the keyed protocol
	disks *storage.FaultProvider // the servers' injectable backends
}

func (f faults) Crash(i int) error { f.srv.CrashServer(i); return nil }

func (f faults) Restart(i int, fresh bool) error {
	if fresh {
		return f.srv.RestartServerFresh(i)
	}
	return f.srv.RestartServer(i)
}

// Swap installs a fresh behavior automaton (behaviors are stateful, so
// no two servers share one).
func (f faults) Swap(i int, behavior string, seed int64) error {
	a, err := behaviorFor(behavior, seed, f.keyed)
	if err != nil {
		return err
	}
	return f.srv.SwapServerAutomaton(i, a)
}

// DiskFault arms kind on server i's backend; the restart that follows
// heals it (simnet) or reopens it (TCP) before recovering.
func (f faults) DiskFault(i int, kind string) error {
	fl := f.disks.Fault(serverName(i))
	if fl == nil {
		return fmt.Errorf("chaos: server %d has no storage backend", i)
	}
	return fl.Arm(kind)
}

// adoptContenders opens writer identities 1..writers-1 with open and
// adopts each into st, so st exposes the writer-identity map fleet
// routers need (kv.Store.PutAs) and closes them with itself. On error
// it closes st.
func adoptContenders(st *kv.Store, writers int, open func(k int) (*kv.Store, error)) ([]*kv.Store, error) {
	var cs []*kv.Store
	for k := 1; k < writers; k++ {
		ct, err := open(k)
		if err == nil {
			if err = st.AdoptContender(ct); err != nil {
				ct.Close()
			}
		}
		if err != nil {
			st.Close()
			return nil, err
		}
		cs = append(cs, ct)
	}
	return cs, nil
}

// ---- single-cluster deployments: core, kv, regular, tcpkv ----

// single is a one-cluster deployment. core, kv and regular run on the
// in-process network, with servers writing through injectable memory
// backends, so warm restarts are genuine WAL replays; tcpkv runs on
// loopback TCP with file WALs. The kinds differ only in their driver,
// whether Byzantine behaviors are keyed, and which checker runs.
type single struct {
	workload.Driver
	faults
	kind    string
	s, t, b int
	net     *simnet.Network // nil over TCP
	check   func([]checker.Op) []checker.Violation
	close   func()
}

func (d *single) Kind() string         { return d.kind }
func (d *single) Servers() int         { return d.s }
func (d *single) Budget() (int, int)   { return d.t, d.b }
func (d *single) Net() *simnet.Network { return d.net }

// ColdRestarts is false everywhere: memory standing in for a disk on
// simnet, and the file WAL a real process restart recovers from on TCP.
func (d *single) ColdRestarts() bool { return false }

func (d *single) Check(ops []checker.Op) []checker.Violation { return d.check(ops) }
func (d *single) Close()                                     { d.close() }

// NumWriters implements workload.MultiWriter; a single-writer driver
// reports 1, which the engine clamps multi-writer scenarios to.
func (d *single) NumWriters() int {
	if mw, ok := d.Driver.(workload.MultiWriter); ok {
		return mw.NumWriters()
	}
	return 1
}

// WriteAs implements workload.MultiWriter.
func (d *single) WriteAs(w int, key string, v types.Value) (types.Tagged, workload.OpMeta, error) {
	mw, ok := d.Driver.(workload.MultiWriter)
	if !ok {
		return types.Tagged{}, workload.OpMeta{}, workload.ErrMWUnsupported
	}
	return mw.WriteAs(w, key, v)
}

// NewCore builds a core single-register simnet deployment.
func NewCore(cfg core.Config) (Deployment, error) {
	fp := simFaultProvider(func() storage.Automaton { return core.NewServer() })
	c, err := core.NewCluster(cfg, core.WithStorage(fp))
	if err != nil {
		return nil, err
	}
	return &single{Driver: workload.ClusterDriver{C: c}, faults: faults{srv: c, disks: fp},
		kind: "core", s: cfg.S(), t: cfg.T, b: cfg.B, net: c.Sim(),
		check: checker.CheckAtomicityPerKey, close: c.Close}, nil
}

// NewKV builds an in-memory sharded KV deployment. writers > 1 opens
// that many writer identities: the primary store plus contender stores
// sharing its servers, each binding stamps under its own ⟨seq, writer⟩
// component — the multi-writer fault surface.
func NewKV(cfg core.Config, writers int, opts ...kv.Option) (Deployment, error) {
	if writers > 1 {
		opts = append(opts, kv.WithContenders(writers-1))
	}
	fp := simFaultProvider(kv.NewStorageAutomaton)
	st, err := kv.Open(cfg, append(opts, kv.WithStorage(fp))...)
	if err != nil {
		return nil, err
	}
	cs, err := adoptContenders(st, writers, st.OpenContender)
	if err != nil {
		return nil, err
	}
	return &single{Driver: workload.KVDriver{S: st, Readers: cfg.NumReaders, Contenders: cs},
		faults: faults{srv: st, keyed: true, disks: fp},
		kind:   "kv", s: cfg.S(), t: cfg.T, b: cfg.B, net: st.Sim(),
		check: checker.CheckAtomicityPerKey, close: st.Close}, nil
}

// NewRegular builds a regular-variant simnet deployment. Its histories
// are checked for regularity: the variant deliberately gives up the
// read hierarchy.
func NewRegular(cfg regular.Config) (Deployment, error) {
	fp := simFaultProvider(func() storage.Automaton { return core.NewRegularServer() })
	c, err := regular.NewDurableCluster(cfg, fp)
	if err != nil {
		return nil, err
	}
	return &single{Driver: workload.RegularDriver{C: c}, faults: faults{srv: c, disks: fp},
		kind: "regular", s: cfg.S(), t: cfg.T, b: cfg.B, net: c.Sim(),
		check: checker.CheckRegularityPerKey, close: c.Close}, nil
}

// NewTCPKV starts S sharded KV servers on loopback and a KV client
// store dialed to them — the real-deployment shape, where crashes and
// restarts are actual listener teardowns and rebinds. Every server
// writes through a real file WAL in a per-run temp directory, so a
// restart reopens the directory (running the genuine fsck/torn-tail
// path) and recovers the pre-crash state. writers > 1 dials additional
// client stores under contending writer identities (and disjoint
// reader identities), all against the same listeners.
func NewTCPKV(cfg core.Config, shards, writers int) (Deployment, error) {
	if writers > 1 && cfg.Writers < writers {
		cfg.Writers = writers
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "luckychaos-tcpkv-")
	if err != nil {
		return nil, fmt.Errorf("chaos tcpkv: data dir: %w", err)
	}
	c, err := startTCPCluster(cfg, shards, writers, dir)
	if err != nil {
		_ = os.RemoveAll(dir)
		return nil, err
	}
	return &single{Driver: workload.KVDriver{S: c.st, Readers: cfg.NumReaders, Contenders: c.contenders},
		faults: faults{srv: c, keyed: true, disks: c.prov},
		kind:   "tcpkv", s: cfg.S(), t: cfg.T, b: cfg.B,
		check: checker.CheckAtomicityPerKey,
		close: func() {
			c.st.Close()
			_ = c.servers.Close()
			_ = os.RemoveAll(dir)
		}}, nil
}

// tcpCluster is S sharded KV servers on loopback TCP, each writing a
// file WAL under its own subdirectory, plus the client store dialed to
// them with its contenders adopted. A crash closes the listener and
// releases the WAL's file handles; a restart rebinds the address and
// reopens the directory.
type tcpCluster struct {
	servers    storage.Servers
	prov       *storage.FaultProvider
	st         *kv.Store
	contenders []*kv.Store
}

func startTCPCluster(cfg core.Config, shards, writers int, dir string) (*tcpCluster, error) {
	c := &tcpCluster{prov: storage.NewFaultProvider(storage.NewDirProvider(dir, kv.NewStorageAutomaton))}
	binds := make([]*tcpnet.Binding, cfg.S())
	var err error
	c.servers, err = storage.StartServers(cfg.S(), func(i int) storage.ServerConfig {
		binds[i] = &tcpnet.Binding{Addr: "127.0.0.1:0"}
		return storage.ServerConfig{
			ID:       types.ServerID(i),
			New:      func() node.Automaton { return kv.NewShardedServerAutomaton(shards) },
			Driver:   binds[i],
			Provider: c.prov,
			Reopen:   true,
		}
	})
	if err != nil {
		return nil, err
	}
	addrs := make([]string, len(binds))
	for i, b := range binds {
		addrs[i] = b.Addr
	}
	dial := func(k int) (*kv.Store, error) {
		return luckystore.OpenKVTCP(cfg, luckystore.ServerAddrs(addrs),
			kv.WithWriterID(types.WriterIDN(k)), kv.WithReaderBase(k*cfg.NumReaders))
	}
	if c.st, err = dial(0); err == nil {
		c.contenders, err = adoptContenders(c.st, writers, dial)
	}
	if err != nil {
		_ = c.servers.Close()
		return nil, err
	}
	return c, nil
}

func (c *tcpCluster) CrashServer(i int)                                 { c.servers[i].Crash() }
func (c *tcpCluster) RestartServer(i int) error                         { return c.servers.Restart(i, false) }
func (c *tcpCluster) RestartServerFresh(i int) error                    { return c.servers.Restart(i, true) }
func (c *tcpCluster) SwapServerAutomaton(i int, a node.Automaton) error { return c.servers.Swap(i, a) }

// ---- consistent-hash router fleets: router, tcprouter ----

// routerSeed fixes the ring seed for chaos fleets: placement must be a
// pure function of the schedule seed alone, and the schedule already
// owns all randomness, so the ring gets a constant.
const routerSeed = 1

// member is one cluster of a fleet: its client store (the router owns
// and closes it), its fault surface, and the teardown of servers the
// store does not own (nil on simnet, where the store owns them).
type member struct {
	st       *kv.Store
	faults   faults
	teardown func()
}

// fleet is a scale-out deployment: clusters behind one consistent-hash
// router. Server faults hit server i of every active cluster — "rack i"
// in fleet terms — so the per-cluster failure budget (t, b) is
// stressed everywhere at once while staying within the model. writers
// > 1 opens that many writer identities on every cluster (joined ones
// included), so fleets carry contending multi-writer traffic.
type fleet struct {
	workload.RouterDriver
	kind    string
	cfg     core.Config
	open    func(id ring.ClusterID) (member, error)
	r       *router.Router
	active  map[ring.ClusterID]member
	members []member // every cluster ever opened: retired TCP listeners stay up for lazy handoffs
	nextID  int
	dir     string // TCP data root, removed at Close
}

// NewRouter builds a fleet of n simnet KV clusters. Each cluster's
// servers write through in-memory storage backends, so a warm restart
// is a genuine WAL replay.
func NewRouter(cfg core.Config, n, writers int) (Deployment, error) {
	return newFleet("router", cfg, n, "", func(ring.ClusterID) (member, error) {
		opts := []kv.Option{kv.WithStorage(storage.NewMemProvider(kv.NewStorageAutomaton))}
		if writers > 1 {
			opts = append(opts, kv.WithContenders(writers-1))
		}
		st, err := kv.Open(cfg, opts...)
		if err != nil {
			return member{}, err
		}
		if _, err := adoptContenders(st, writers, st.OpenContender); err != nil {
			return member{}, err
		}
		return member{st: st, faults: faults{srv: st, keyed: true}}, nil
	})
}

// NewTCPRouter builds a fleet of n loopback-TCP KV clusters: the
// real-deployment shape of a fleet, where every cluster is S sockets, a
// crash is a listener teardown, and every server keeps a file WAL so
// restarts recover from disk.
func NewTCPRouter(cfg core.Config, shards, n, writers int) (Deployment, error) {
	if writers > 1 && cfg.Writers < writers {
		cfg.Writers = writers
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "luckychaos-tcprouter-")
	if err != nil {
		return nil, fmt.Errorf("chaos tcprouter: data dir: %w", err)
	}
	return newFleet("tcprouter", cfg, n, dir, func(id ring.ClusterID) (member, error) {
		c, err := startTCPCluster(cfg, shards, writers, filepath.Join(dir, string(id)))
		if err != nil {
			return member{}, err
		}
		return member{st: c.st, faults: faults{srv: c, keyed: true, disks: c.prov},
			teardown: func() { _ = c.servers.Close() }}, nil
	})
}

func newFleet(kind string, cfg core.Config, n int, dir string, open func(ring.ClusterID) (member, error)) (Deployment, error) {
	d := &fleet{kind: kind, cfg: cfg, open: open, dir: dir, active: make(map[ring.ClusterID]member, n)}
	if n < 1 {
		d.Close()
		return nil, fmt.Errorf("chaos %s: need at least one cluster", kind)
	}
	backends := make(map[ring.ClusterID]router.Backend, n)
	for ; d.nextID < n; d.nextID++ {
		id := ring.ID(d.nextID)
		m, err := d.open(id)
		if err != nil {
			d.Close()
			return nil, err
		}
		d.members = append(d.members, m)
		d.active[id] = m
		backends[id] = m.st
	}
	r, err := router.New(router.Options{Seed: routerSeed, Readers: cfg.NumReaders}, backends)
	if err != nil {
		d.Close()
		return nil, err
	}
	d.r = r
	d.RouterDriver = workload.RouterDriver{R: r}
	return d, nil
}

func (d *fleet) Kind() string       { return d.kind }
func (d *fleet) Servers() int       { return d.cfg.S() }
func (d *fleet) Budget() (int, int) { return d.cfg.T, d.cfg.B }

// Net returns nil: each cluster runs its own network, and the engine's
// network actions script one network. Fleet runs exercise placement,
// coalescing and rebalancing; single-cluster runs own the partition
// scenarios.
func (d *fleet) Net() *simnet.Network { return nil }
func (d *fleet) ColdRestarts() bool   { return false }

func (d *fleet) Crash(i int) error {
	return d.each(func(f faults) error { return f.Crash(i) })
}

func (d *fleet) Restart(i int, fresh bool) error {
	return d.each(func(f faults) error { return f.Restart(i, fresh) })
}

func (d *fleet) Swap(i int, behavior string, seed int64) error {
	return d.each(func(f faults) error { return f.Swap(i, behavior, seed) })
}

// each applies one cluster fault to every active cluster.
func (d *fleet) each(fault func(faults) error) error {
	for id, m := range d.active {
		if err := fault(m.faults); err != nil {
			return fmt.Errorf("cluster %s: %w", id, err)
		}
	}
	return nil
}

func (d *fleet) JoinCluster() error {
	id := ring.ID(d.nextID)
	m, err := d.open(id)
	if err != nil {
		return err
	}
	d.members = append(d.members, m)
	if err := d.r.AddCluster(id, m.st); err != nil {
		m.st.Close()
		return err
	}
	d.nextID++
	d.active[id] = m
	return nil
}

func (d *fleet) RemoveCluster(i int) error {
	active := d.r.Clusters()
	if len(active) == 0 {
		return fmt.Errorf("chaos %s: no active clusters", d.kind)
	}
	id := active[i%len(active)]
	if err := d.r.RemoveCluster(id); err != nil {
		return err
	}
	// The store stays open (router-owned) and its servers up: lazily
	// migrated keys still read their pair out of the retired cluster.
	delete(d.active, id)
	return nil
}

func (d *fleet) NumClusters() int { return len(d.r.Clusters()) }

func (d *fleet) Check(ops []checker.Op) []checker.Violation {
	return checker.CheckAtomicityPerKey(ops)
}

func (d *fleet) Close() {
	if d.r != nil {
		_ = d.r.Close() // closes every client store, active and retired
	} else {
		for _, m := range d.members {
			m.st.Close()
		}
	}
	for _, m := range d.members {
		if m.teardown != nil {
			m.teardown()
		}
	}
	if d.dir != "" {
		_ = os.RemoveAll(d.dir)
	}
}

// Open builds a deployment by kind name with the default chaos
// configuration — the entry point luckychaos and the smoke matrix use.
// writers > 1 opens that many writer identities on every kind that
// supports contention (core, kv, tcpkv, router, tcprouter — the fleet
// kinds route contending writes through their per-cluster
// writer-identity maps); only the regular variant stays single-writer,
// and multi-writer scenarios are explicitly clamped to SWMR traffic on
// it (Report.MWClamped).
func Open(kind string, readers, writers int) (Deployment, error) {
	switch kind {
	case "core":
		cfg := DefaultConfig(readers)
		cfg.Writers = writers
		return NewCore(cfg)
	case "kv":
		return NewKV(DefaultConfig(readers), writers)
	case "tcpkv":
		return NewTCPKV(DefaultConfig(readers), 0, writers)
	case "router":
		return NewRouter(DefaultConfig(readers), 2, writers)
	case "tcprouter":
		return NewTCPRouter(DefaultConfig(readers), 0, 2, writers)
	case "regular":
		cfg := DefaultConfig(readers)
		return NewRegular(regular.Config{
			T: cfg.T, B: cfg.B, NumReaders: cfg.NumReaders,
			RoundTimeout: cfg.RoundTimeout, OpTimeout: cfg.OpTimeout,
		})
	default:
		return nil, fmt.Errorf("chaos: unknown deployment %q (core|kv|tcpkv|router|tcprouter|regular)", kind)
	}
}

// Kinds lists the deployment kinds Open accepts.
func Kinds() []string { return []string{"core", "kv", "tcpkv", "router", "tcprouter", "regular"} }
