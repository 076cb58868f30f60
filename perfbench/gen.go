package main

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"syscall"
	"time"

	"luckystore/internal/checker"
	"luckystore/internal/types"
	"luckystore/internal/workload"
)

// arrival is one open-loop operation and the instant it was due.
type arrival struct {
	due   time.Time
	key   string
	write bool
}

// history records a pass's window with one checker.Recorder per key.
// checked holds the operations that reached the store, timed from their
// real invocation: the history the checker reads. due, on the open loop
// only, holds every arrival timed from when it was due, shed and unsent
// ones as failures: what workload.Summarize reads. On a closed loop an
// operation is due when it is invoked, so checked serves both.
//
// One recorder per key keeps the clients off a shared lock and keeps the
// history's growth smooth. A single recorder's slice grows by copying:
// when a run crossed a growth step near the window's end, the copy added
// the whole history to the peak memory, and mem-batch's max_rss_mb
// flipped between about 216 and 268 MiB from run to run.
type history struct {
	keys         []string
	checked, due map[string]*checker.Recorder // read-only after newHistory
}

func newHistory(keys []string, open bool) history {
	recorders := func() map[string]*checker.Recorder {
		m := make(map[string]*checker.Recorder, len(keys))
		for _, k := range keys {
			m[k] = checker.NewRecorder()
		}
		return m
	}
	h := history{keys: keys, checked: recorders()}
	if open {
		h.due = recorders()
	}
	return h
}

// add records op, which reached the store, due at due.
func (h history) add(op checker.Op, due time.Time) {
	h.checked[op.Key].Add(op)
	if h.due != nil {
		op.Invoke = due
		h.due[op.Key].Add(op)
	}
}

// collect appends the recorders' operations to ops key by key, numbering
// every operation by its place in the result.
func (h history) collect(ops []checker.Op, recs map[string]*checker.Recorder) []checker.Op {
	for _, k := range h.keys {
		ops = append(ops, recs[k].Ops()...)
	}
	for i := range ops {
		ops[i].ID = i
	}
	return ops
}

// unissued records an open-loop arrival that never reached the store:
// err says whether it was shed or still queued when the window closed.
func (h history) unissued(a arrival, at time.Time, err error) {
	op := checker.Op{Client: types.ReaderID(0), Kind: checker.KindRead, Key: a.key, Invoke: a.due, Return: at, Err: err}
	if a.write {
		op.Client, op.Kind = types.WriterID(), checker.KindWrite
	}
	h.due[a.key].Add(op)
}

var (
	// errShed marks an open-loop arrival whose key's queue was full.
	errShed = errors.New("perfbench: arrival shed (queue full)")
	// errUnsent marks an arrival still queued when the window closed.
	errUnsent = errors.New("perfbench: arrival not issued before the window closed")
)

// issue runs one blocking operation on key — a put of the seq-th value,
// or a get — and returns its history entry, invoked now.
func (d *deployment) issue(key string, write bool, seq int) checker.Op {
	op := checker.Op{Client: types.ReaderID(0), Kind: checker.KindRead, Key: key, Invoke: time.Now()}
	var meta workload.OpMeta
	if write {
		v := workload.Value(seq, valueSize)
		op.Client, op.Kind = types.WriterID(), checker.KindWrite
		if op.Value, meta, op.Err = d.put(key, v); op.Err != nil {
			op.Value = types.Tagged{Val: v} // a failed put's stamp is unknown
		}
	} else {
		op.Value, meta, op.Err = d.get(key)
	}
	op.Return, op.Rounds, op.Fast = time.Now(), meta.Rounds, meta.Fast
	return op
}

// openLoop offers spec.rate ops/s for window. Arrival i is due at
// start + i/rate whatever the system does, and goes to a bounded queue
// per key served by one actor, so a key's operations never overlap: a
// lost fast path here comes from asynchrony (a round timer firing), not
// from a read racing a write. A full queue sheds the arrival. The
// generator never skips an arrival: when it falls behind it dispatches
// late and returns by how much, per arrival. Operations go to hist with
// their real invocation time and when they were due.
func openLoop(d *deployment, spec workloadSpec, seed int64, start time.Time, window time.Duration, hist history) []time.Duration {
	keys := keyNames(spec.keys)
	end := start.Add(window)
	var wg sync.WaitGroup
	queues := make(map[string]chan arrival, len(keys))
	for _, k := range keys {
		q := make(chan arrival, queueDepth)
		queues[k] = q
		wg.Add(1)
		go func() {
			defer wg.Done()
			seq := 0
			for a := range q {
				if !time.Now().Before(end) {
					hist.unissued(a, end, errUnsent)
					continue
				}
				if a.write {
					seq++
				}
				hist.add(d.issue(a.key, a.write, seq), a.due)
			}
		}()
	}

	// The arrival clock sleeps in the kernel on this goroutine's own
	// thread: the Go runtime's timers wake up to a millisecond late.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	rng := rand.New(rand.NewSource(seed))
	n := int(spec.rate * window.Seconds())
	interval := float64(time.Second) / spec.rate
	late := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		a := arrival{
			due:   start.Add(time.Duration(float64(i) * interval)),
			key:   keys[rng.Intn(len(keys))],
			write: rng.Float64() < writeFrac,
		}
		sleepUntil(a.due)
		now := time.Now()
		late = append(late, now.Sub(a.due))
		select {
		case queues[a.key] <- a:
		default:
			hist.unissued(a, now, errShed)
		}
	}
	sleepUntil(end)
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	return late
}

// sleepUntil blocks the calling thread until t with the kernel's timer.
// A signal can end a nanosleep early, hence the loop.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// batchLoop runs the batch mix for window: the writer session loops
// PutBatch over alternating halves of the keys while the reader session
// loops GetBatch over halves offset by a quarter, so every read batch
// overlaps a write batch on half its keys. The seed permutes the keys.
// Each key of a batch is one operation logged with its batch call's start
// and return.
func batchLoop(d *deployment, spec workloadSpec, seed int64, start time.Time, window time.Duration, hist history) []time.Duration {
	keys := keyNames(spec.keys)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	ring := append(append([]string(nil), keys...), keys...)
	quarter := spec.batch / 2
	writeSets := [][]string{ring[:spec.batch], ring[spec.batch : 2*spec.batch]}
	readSets := [][]string{ring[quarter : quarter+spec.batch], ring[quarter+spec.batch : quarter+2*spec.batch]}

	end := start.Add(window)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		seq := make(map[string]int, len(keys))
		vals := make(map[string]types.Value, spec.batch)
		for b := 0; time.Now().Before(end); b++ {
			set := writeSets[b%2]
			clear(vals)
			for _, k := range set {
				seq[k]++
				vals[k] = workload.Value(seq[k], valueSize)
			}
			invoke := time.Now()
			err := d.putBatch(set, vals)
			ret := time.Now()
			for _, k := range set {
				op := checker.Op{Client: types.WriterID(), Kind: checker.KindWrite, Key: k,
					Value: types.Tagged{Val: vals[k]}, Invoke: invoke, Return: ret, Err: err}
				if err == nil {
					m, merr := d.store.PutMeta(k)
					op.Value, op.Rounds, op.Fast, op.Err = m.Value(vals[k]), m.Rounds, m.Fast, merr
				}
				hist.add(op, invoke)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for b := 0; time.Now().Before(end); b++ {
			set := readSets[b%2]
			invoke := time.Now()
			got, err := d.getBatch(set)
			ret := time.Now()
			for _, k := range set {
				op := checker.Op{Client: types.ReaderID(0), Kind: checker.KindRead, Key: k,
					Invoke: invoke, Return: ret, Err: err}
				if v, ok := got[k]; ok {
					m, merr := d.store.GetMeta(0, k)
					op.Value, op.Rounds, op.Fast, op.Err = v, m.Rounds(), m.Fast(), merr
				}
				hist.add(op, invoke)
			}
		}
	}()
	wg.Wait()
	return nil
}

// keyLoop runs spec.clients closed-loop clients for window. Client c
// owns the keys whose index is c modulo spec.clients and issues a blocking put
// or get (half writes) on one of them, drawn from the seed, as soon as
// its previous operation returns. No read overlaps a write of its key,
// so a slow path comes from asynchrony alone. Spreading the clients'
// traffic over many keys keeps each key's history short: the checker's
// cost grows with the square of it.
func keyLoop(d *deployment, spec workloadSpec, seed int64, start time.Time, window time.Duration, hist history) []time.Duration {
	keys := keyNames(spec.keys)
	end := start.Add(window)
	var wg sync.WaitGroup
	for c := 0; c < spec.clients; c++ {
		var own []string
		for i := c; i < len(keys); i += spec.clients {
			own = append(own, keys[i])
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(c)))
			seq := make(map[string]int, len(own))
			for time.Now().Before(end) {
				key, write := own[rng.Intn(len(own))], rng.Float64() < writeFrac
				if write {
					seq[key]++
				}
				op := d.issue(key, write, seq[key])
				hist.add(op, op.Invoke)
			}
		}()
	}
	wg.Wait()
	return nil
}
