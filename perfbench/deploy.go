package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"strconv"

	"luckystore"
	"luckystore/internal/checker"
	"luckystore/internal/kv"
	"luckystore/internal/types"
	"luckystore/internal/workload"
)

// deployment is one running cluster plus the client store over it.
type deployment struct {
	store *kv.Store
	trace *tracer // nil on the untraced pass
	// stop closes the client store, then the servers (flushing and
	// fsyncing their WALs), and reports the first close error.
	stop func() error
}

// deployPublic starts the cluster through the product's public entry
// points: S × ListenTCPKV (durable when dirs is non-nil) and OpenKVTCP,
// which dials one writer and one reader session.
func deployPublic(dirs []string) (*deployment, error) {
	var servers []*luckystore.TCPServer
	stopServers := func() error {
		var errs []error
		for _, s := range servers {
			errs = append(errs, s.Close())
		}
		return errors.Join(errs...)
	}
	addrs := make([]string, benchConfig.S())
	for i := range addrs {
		var opts []luckystore.TCPOption
		if dirs != nil {
			opts = append(opts, luckystore.WithTCPDataDir(dirs[i]))
		}
		s, err := luckystore.ListenTCPKV(i, "127.0.0.1:0", opts...)
		if err != nil {
			_ = stopServers()
			return nil, fmt.Errorf("listen server %d: %w", i, err)
		}
		servers = append(servers, s)
		addrs[i] = s.Addr()
	}
	st, err := luckystore.OpenKVTCP(benchConfig, luckystore.ServerAddrs(addrs))
	if err != nil {
		_ = stopServers()
		return nil, fmt.Errorf("dial: %w", err)
	}
	return &deployment{store: st, stop: func() error {
		st.Close()
		return stopServers()
	}}, nil
}

// serverDirs names one WAL directory per server under root.
func serverDirs(root string) []string {
	dirs := make([]string, benchConfig.S())
	for i := range dirs {
		dirs[i] = filepath.Join(root, "s"+strconv.Itoa(i))
	}
	return dirs
}

func keyNames(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = "k" + strconv.Itoa(i)
	}
	return keys
}

// put is a blocking Put through the writer session, timed as one kv
// call span when traced.
func (d *deployment) put(key string, v types.Value) (types.Tagged, workload.OpMeta, error) {
	drv := workload.KVDriver{S: d.store, Readers: benchConfig.NumReaders}
	if d.trace == nil {
		return drv.Write(key, v)
	}
	call := d.trace.begin(spanKVPut, types.WriterID(), key)
	got, meta, err := drv.Write(key, v)
	d.trace.end(call)
	return got, meta, err
}

// get is a blocking Get through reader session 0.
func (d *deployment) get(key string) (types.Tagged, workload.OpMeta, error) {
	drv := workload.KVDriver{S: d.store, Readers: benchConfig.NumReaders}
	if d.trace == nil {
		return drv.Read(0, key)
	}
	call := d.trace.begin(spanKVGet, types.ReaderID(0), key)
	got, meta, err := drv.Read(0, key)
	d.trace.end(call)
	return got, meta, err
}

// putBatch writes vals (keyed by the names in keys) in one PutBatch.
func (d *deployment) putBatch(keys []string, vals map[string]types.Value) error {
	if d.trace == nil {
		return d.store.PutBatch(vals)
	}
	call := d.trace.begin(spanKVPut, types.WriterID(), keys...)
	err := d.store.PutBatch(vals)
	d.trace.end(call)
	return err
}

// getBatch reads keys in one GetBatch through reader session 0.
func (d *deployment) getBatch(keys []string) (map[string]types.Tagged, error) {
	if d.trace == nil {
		return d.store.GetBatch(0, keys)
	}
	call := d.trace.begin(spanKVGet, types.ReaderID(0), keys...)
	got, err := d.store.GetBatch(0, keys)
	d.trace.end(call)
	return got, err
}

// warmUp issues one Put and one Get per key, logged: the deployment's
// connections are dialed and every register exists before the measured
// window starts.
func (d *deployment) warmUp(keys []string, rec *checker.Recorder) error {
	for _, key := range keys {
		for _, write := range []bool{true, false} {
			op := d.issue(key, write, 0)
			rec.Add(op)
			if op.Err != nil {
				return fmt.Errorf("warm-up %v %q: %w", op.Kind, key, op.Err)
			}
		}
	}
	return nil
}

// readBack reopens servers on dirs — WAL recovery from what the closed
// deployment left — and requires every key to read back at or above the
// last stamp a Put acknowledged in ops (with that Put's value when the
// stamps are equal).
func readBack(dirs []string, ops []checker.Op) error {
	last := make(map[string]types.Tagged)
	for _, op := range ops {
		if op.Kind == checker.KindWrite && op.Err == nil && last[op.Key].Stamp().Less(op.Value.Stamp()) {
			last[op.Key] = op.Value
		}
	}
	d, err := deployPublic(dirs)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	for key, want := range last {
		got, err := d.store.Get(0, key)
		if err == nil && (got.Stamp().Less(want.Stamp()) || (got.Stamp() == want.Stamp() && got.Val != want.Val)) {
			err = fmt.Errorf("read back 〈%v〉, last acknowledged write was 〈%v〉", got.Stamp(), want.Stamp())
		}
		if err != nil {
			_ = d.stop()
			return fmt.Errorf("read-back of %q after restart: %w", key, err)
		}
	}
	return d.stop()
}
