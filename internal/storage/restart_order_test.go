package storage_test

// Restart order: a restart must stop the old process before it replays
// the WAL. A gated backend holds a live server's first Append until
// Replay has run; if the restart replays first, the record lands in the
// WAL (and its ack goes out) after the new automaton was built, and the
// restarted server comes back without it — amnesia the model never
// counted against b. With the right order the old worker finishes the
// step (the gate's escape releases it) before anything is replayed.

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"luckystore/internal/core"
	"luckystore/internal/kv"
	"luckystore/internal/node"
	"luckystore/internal/regular"
	"luckystore/internal/storage"
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// gateEscape releases a gated Append when no Replay comes: the correct
// restart order waits for the in-flight step before replaying, so only
// this timeout can end that wait.
const gateEscape = 100 * time.Millisecond

// gatedBackend blocks the first Append after arm until Replay runs (or
// gateEscape passes).
type gatedBackend struct {
	storage.Backend
	armed    atomic.Bool
	watching atomic.Bool
	entered  chan struct{}
	replayed chan struct{}
	once     sync.Once
}

func (g *gatedBackend) arm() {
	g.watching.Store(true)
	g.armed.Store(true)
}

func (g *gatedBackend) Append(p []byte) error {
	if g.armed.CompareAndSwap(true, false) {
		close(g.entered)
		select {
		case <-g.replayed:
		case <-time.After(gateEscape):
		}
	}
	return g.Backend.Append(p)
}

func (g *gatedBackend) Replay(fn func([]byte) error) error {
	if g.watching.Load() {
		g.once.Do(func() { close(g.replayed) })
	}
	return g.Backend.Replay(fn)
}

// gatedProvider hands out memory backends, gating server s0's.
type gatedProvider struct {
	mu    sync.Mutex
	backs map[string]storage.Backend
	gate  *gatedBackend
}

func newGatedProvider() *gatedProvider {
	return &gatedProvider{backs: map[string]storage.Backend{}}
}

func (p *gatedProvider) Open(name string) (storage.Backend, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if b, ok := p.backs[name]; ok {
		return b, nil
	}
	var b storage.Backend = storage.NewMemory(nil)
	if name == string(types.ServerID(0)) {
		p.gate = &gatedBackend{Backend: b, entered: make(chan struct{}), replayed: make(chan struct{})}
		b = p.gate
	}
	p.backs[name] = b
	return b, nil
}

// restartCase is one cluster flavor under test: it restarts server 0
// and exposes a spare process endpoint (not pumped by any client) to
// talk to it raw.
type restartCase struct {
	restart func() error
	spare   transport.Endpoint
	fresh   func() node.Automaton // a correct automaton, for the WAL replay
	wrap    func(wire.Message) wire.Message
	close   func()
}

func TestRestartStopsServerBeforeReplay(t *testing.T) {
	cfgCore := core.Config{T: 1, B: 0, Fw: 0, NumReaders: 1,
		RoundTimeout: 20 * time.Millisecond, OpTimeout: 3 * time.Second}
	plain := func(m wire.Message) wire.Message { return m }
	cases := map[string]func(p storage.Provider) (restartCase, error){
		"core": func(p storage.Provider) (restartCase, error) {
			c, err := core.NewCluster(cfgCore, core.WithStorage(p))
			if err != nil {
				return restartCase{}, err
			}
			ep, err := c.Sim().Endpoint(types.WriterID())
			return restartCase{func() error { return c.RestartServer(0) }, ep,
				func() node.Automaton { return core.NewServer() }, plain, c.Close}, err
		},
		"regular": func(p storage.Provider) (restartCase, error) {
			c, err := regular.NewDurableCluster(regular.Config{T: 1, B: 0, NumReaders: 1,
				RoundTimeout: 20 * time.Millisecond, OpTimeout: 3 * time.Second}, p)
			if err != nil {
				return restartCase{}, err
			}
			ep, err := c.Sim().Endpoint(types.WriterID())
			return restartCase{func() error { return c.RestartServer(0) }, ep,
				func() node.Automaton { return core.NewRegularServer() }, plain, c.Close}, err
		},
		"kv": func(p storage.Provider) (restartCase, error) {
			st, err := kv.Open(cfgCore, kv.WithStorage(p), kv.WithContenders(1), kv.WithShards(2))
			if err != nil {
				return restartCase{}, err
			}
			// Contender 1's identity is registered but never opened.
			ep, err := st.Sim().Endpoint(types.WriterIDN(1))
			return restartCase{func() error { return st.RestartServer(0) }, ep,
				func() node.Automaton { return kv.NewStorageAutomaton() },
				func(m wire.Message) wire.Message { return wire.Keyed{Key: "k", Inner: m} }, st.Close}, err
		},
	}
	for name, open := range cases {
		t.Run(name, func(t *testing.T) {
			p := newGatedProvider()
			rc, err := open(p)
			if err != nil {
				t.Fatal(err)
			}
			defer rc.close()
			from := rc.spare.ID()

			p.gate.arm()
			pw := wire.PW{TS: 1, PW: types.Tagged{TS: 1, W: types.WID(from.WriterIndex()), Val: "v1"}, W: types.Bottom()}
			if err := rc.spare.Send(types.ServerID(0), rc.wrap(pw)); err != nil {
				t.Fatal(err)
			}
			<-p.gate.entered // s0 is stepping the PW, its append held
			if err := rc.restart(); err != nil {
				t.Fatal(err)
			}

			// The restarted s0 must answer a query exactly as an automaton
			// rebuilt from its whole WAL does.
			query := rc.wrap(wire.Read{TSR: 1, Round: 1})
			want := rc.fresh()
			if _, err := storage.Recover(p.gate.Backend, want); err != nil {
				t.Fatal(err)
			}
			if n := p.gate.Stats().Records; n == 0 {
				t.Fatal("the gated PW never reached the WAL")
			}
			wantReply := want.Step(from, query)
			if err := rc.spare.Send(types.ServerID(0), query); err != nil {
				t.Fatal(err)
			}
			timeout := time.After(5 * time.Second)
			for {
				select {
				case env := <-rc.spare.Recv():
					if _, isAck := unwrap(env.Msg).(wire.ReadAck); !isAck {
						continue // the PW's ack
					}
					if len(wantReply) != 1 || !reflect.DeepEqual(env.Msg, wantReply[0].Msg) {
						t.Fatalf("restarted server answers %+v; its WAL replays to %+v", env.Msg, wantReply)
					}
					return
				case <-timeout:
					t.Fatal("no reply from the restarted server")
				}
			}
		})
	}
}

func unwrap(m wire.Message) wire.Message {
	if k, ok := m.(wire.Keyed); ok {
		return k.Inner
	}
	return m
}
