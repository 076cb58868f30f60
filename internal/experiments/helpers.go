package experiments

import (
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

// expRoundTimeout is the round-1 timer used across experiments: long
// enough that every in-process reply beats it by orders of magnitude.
const expRoundTimeout = 15 * time.Millisecond

// expOpTimeout bounds one experiment operation; scripted runs that
// deliberately block rely on it.
const expOpTimeout = 5 * time.Second

// manualCluster assembles servers over a simnet without the config
// validation of core.NewCluster — the escape hatch the upper-bound
// experiments use to build deliberately misconfigured or undersized
// deployments.
type manualCluster struct {
	sim     *simnet.Network
	servers storage.Servers
	nSrv    int
}

// newManualCluster starts the given automata as servers s0..s(n-1) and
// registers one writer and nReaders reader endpoints.
func newManualCluster(automata []node.Automaton, nReaders int) (*manualCluster, error) {
	n := len(automata)
	ids := append(types.ServerIDs(n), types.WriterID())
	ids = append(ids, types.ReaderIDs(nReaders)...)
	sim, err := simnet.New(ids)
	if err != nil {
		return nil, err
	}
	mc := &manualCluster{sim: sim, nSrv: n}
	mc.servers, err = storage.StartServers(n, func(i int) storage.ServerConfig {
		return storage.ServerConfig{
			ID:     types.ServerID(i),
			New:    func() node.Automaton { return automata[i] },
			Driver: node.NetDriver{Net: sim},
		}
	})
	if err != nil {
		mc.Close()
		return nil, err
	}
	return mc, nil
}

func (mc *manualCluster) endpoint(id types.ProcID) (transport.Endpoint, error) {
	return mc.sim.Endpoint(id)
}

func (mc *manualCluster) crash(i int) { mc.servers[i].Crash() }

func (mc *manualCluster) Close() {
	_ = mc.sim.Close()
	_ = mc.servers.Close()
}

// coreServers returns n fresh core.Server automata.
func coreServers(n int) []node.Automaton {
	out := make([]node.Automaton, n)
	for i := range out {
		out[i] = core.NewServer()
	}
	return out
}

// weakReadMeta describes one weakRead outcome.
type weakReadMeta struct {
	Returned types.Tagged
	Rounds   int
	TimedOut bool
}

// weakRead runs the paper's READ loop with arbitrary predicate
// thresholds — the instrument of the upper-bound experiments. Weakening
// Safe below b+1 (or FastPW below 2b+t+1) models an implementation
// that tries to be fast despite fw+fr > t−b, which Proposition 2 proves
// must go wrong. The read never writes back (the violating runs don't
// need it) and gives up after opTimeout, reporting TimedOut.
func weakRead(ep transport.Endpoint, nServers int, th core.Thresholds, tsr types.ReaderTS,
	roundTimeout, opTimeout time.Duration) (weakReadMeta, error) {

	deadline := time.NewTimer(opTimeout)
	defer deadline.Stop()
	view := core.NewViewWithThresholds(th, tsr)

	var timer *time.Timer
	expired := false
	rnd := 0
	for {
		rnd++
		for i := 0; i < nServers; i++ {
			if err := ep.Send(types.ServerID(i), wire.Read{TSR: tsr, Round: rnd}); err != nil {
				return weakReadMeta{}, err
			}
		}
		if rnd == 1 {
			timer = time.NewTimer(roundTimeout)
			defer timer.Stop()
		}
		roundAcks := make(map[types.ProcID]bool, nServers)
		for len(roundAcks) < nServers &&
			!(len(roundAcks) >= th.Quorum && (rnd > 1 || expired)) {
			select {
			case env, ok := <-ep.Recv():
				if !ok {
					return weakReadMeta{}, transport.ErrClosed
				}
				a, isAck := env.Msg.(wire.ReadAck)
				if !isAck || !env.From.IsServer() || a.TSR != tsr || wire.Validate(a) != nil || a.Round > rnd {
					continue
				}
				if a.Round == rnd {
					roundAcks[env.From] = true
				}
				view.Update(env.From, a.Round, a.PW, a.W, a.VW, a.Frozen)
			case <-timer.C:
				expired = true
			case <-deadline.C:
				return weakReadMeta{Rounds: rnd, TimedOut: true}, nil
			}
		}
		if c, ok := view.Select(); ok {
			return weakReadMeta{Returned: c, Rounds: rnd}, nil
		}
	}
}

// overEagerWrite performs a one-round WRITE that declares success after
// acks from S − fw servers with fw beyond the t−b bound — the
// implementation Appendix B proves unsafe. It sends only the PW round.
func overEagerWrite(ep transport.Endpoint, nServers, needAcks int, ts types.TS, v types.Value,
	opTimeout time.Duration) error {

	c := types.Tagged{TS: ts, Val: v}
	for i := 0; i < nServers; i++ {
		if err := ep.Send(types.ServerID(i), wire.PW{TS: ts, PW: c, W: types.Bottom()}); err != nil {
			return err
		}
	}
	deadline := time.NewTimer(opTimeout)
	defer deadline.Stop()
	acks := make(map[types.ProcID]bool, nServers)
	for len(acks) < needAcks {
		select {
		case env, ok := <-ep.Recv():
			if !ok {
				return transport.ErrClosed
			}
			if a, isAck := env.Msg.(wire.PWAck); isAck && env.From.IsServer() && a.TS == ts {
				acks[env.From] = true
			}
		case <-deadline.C:
			return fmt.Errorf("over-eager write: %w", core.ErrOpTimeout)
		}
	}
	return nil
}

// releaseAfter releases all held links of sim after d, from a separate
// goroutine; the returned func waits for it (call before Close).
func releaseAfter(sim *simnet.Network, d time.Duration) (wait func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(d)
		sim.ReleaseAll()
	}()
	return func() { <-done }
}
