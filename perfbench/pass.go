package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"luckystore/internal/checker"
	"luckystore/internal/workload"
)

// windowParts is how many equal parts of the window the end-to-end metrics
// are computed over; each metric reports the median of its parts, so a
// transient stall on the shared machine moves one part, not the result.
const windowParts = 5

// pass is one measured run of a workload on one deployment.
type pass struct {
	spec   workloadSpec
	start  time.Time
	window time.Duration
	setups []time.Duration
	ops    []checker.Op // checked history: warm-up plus window, real invocation times
	timed  []checker.Op // the window's arrivals, timed from when they were due
	late   []time.Duration
	usage  usage
	// Traced passes only: the tracer and the registry counters read at
	// the window's edges.
	trace         *tracer
	before, after counters
	// attempted counts the window's operations issued to the store,
	// failed those that returned an error, the first of which is opErr.
	attempted, failed int
	opErr             error
}

// measure builds the deployment setupReps times (fresh WAL directories
// each time under dir), keeps the last build, runs the workload for
// window, stops the cluster, checks the history and — on durable
// workloads — reads every key back from reopened servers.
func measure(spec workloadSpec, seed int64, window time.Duration, dir string, traced bool) (*pass, error) {
	p := &pass{spec: spec, window: window}
	keys := keyNames(spec.keys)
	var (
		d    *deployment
		dirs []string
		warm *checker.Recorder
	)
	// Each pass's peak memory is its own: the heap a previous pass left
	// goes back to the kernel, and the high-water mark restarts.
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	for k := 0; k < setupReps; k++ {
		if spec.durable {
			dirs = serverDirs(filepath.Join(dir, "setup-"+strconv.Itoa(k)))
		}
		warm = checker.NewRecorder()
		t0 := time.Now()
		var err error
		if traced {
			d, err = deployTraced(dirs)
		} else {
			d, err = deployPublic(dirs)
		}
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if err := d.warmUp(keys, warm); err != nil {
			_ = d.stop()
			return nil, err
		}
		p.setups = append(p.setups, time.Since(t0))
		if k < setupReps-1 {
			if err := d.stop(); err != nil {
				return nil, fmt.Errorf("setup teardown: %w", err)
			}
		}
	}

	hist := newHistory(keys, spec.rate > 0)
	p.trace = d.trace
	if p.trace != nil {
		p.trace.reset()
		p.before = p.trace.counters()
	}
	p.start = time.Now()
	sampled := sampleUsage(p.start, window)
	run := keyLoop
	switch {
	case spec.rate > 0:
		run = openLoop
	case spec.batch > 0:
		run = batchLoop
	}
	p.late = run(d, spec, seed, p.start, window, hist)
	p.usage = <-sampled
	if p.usage.err != nil {
		_ = d.stop()
		return nil, p.usage.err
	}
	if p.trace != nil {
		p.after = p.trace.counters()
	}
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("teardown: %w", err)
	}

	// Checking copies the history a few times over; a tighter GC target
	// keeps that from inflating the process, and the next pass measures
	// with the default again.
	defer debug.SetGCPercent(debug.SetGCPercent(25))
	p.ops = hist.collect(warm.Ops(), hist.checked)
	if hist.due != nil {
		p.timed = hist.collect(nil, hist.due)
	} else {
		p.timed = p.windowOps()
	}
	for _, op := range p.windowOps() {
		p.attempted++
		if op.Err != nil {
			p.failed++
			if p.opErr == nil {
				p.opErr = op.Err
			}
		}
	}
	if vs := checker.CheckAtomicityPerKey(p.ops); len(vs) > 0 {
		var b strings.Builder
		for i, v := range vs {
			if i == 5 {
				fmt.Fprintf(&b, "\n  … %d more", len(vs)-i)
				break
			}
			fmt.Fprintf(&b, "\n  %v", v)
		}
		return nil, fmt.Errorf("checker: %d atomicity violations:%s", len(vs), b.String())
	}
	if spec.durable {
		if err := readBack(dirs, p.ops); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// windowOps is the checked history without the warm-up Put+Get per key.
func (p *pass) windowOps() []checker.Op { return p.ops[2*p.spec.keys:] }

func ofKind(ops []checker.Op, kind checker.OpKind) []checker.Op {
	var out []checker.Op
	for _, op := range ops {
		if op.Kind == kind {
			out = append(out, op)
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// endToEnd reports the metrics a user of the store sees, each the
// median over the window's parts, an operation counting in the part it
// completed in (set-up time is the median over the set-up repetitions,
// memory the peak). Open-loop latencies run from each arrival's due
// time.
func (p *pass) endToEnd() map[string]metric {
	part := p.window / windowParts
	parts := make([][]checker.Op, windowParts)
	for _, op := range p.timed {
		i := min(max(int(op.Return.Sub(p.start)/part), 0), windowParts-1)
		parts[i] = append(parts[i], op)
	}
	cols := make(map[string][]float64)
	for i, ops := range parts {
		s := workload.Summarize(ops, part)
		attempted := s.Ops + s.Errors // every arrival: done, failed, shed or unsent
		okFrac, cpuPerOp := 0.0, 0.0
		if attempted > 0 {
			okFrac = float64(s.Ops) / float64(attempted)
		}
		if s.Ops > 0 {
			cpuPerOp = us(p.usage.cpu[i+1]-p.usage.cpu[i]) / float64(s.Ops)
		}
		for k, v := range map[string]float64{
			"goodput_ops_s": s.Throughput,
			"put_p50_ms":    ms(s.WriteLatency.P50),
			"put_p99_ms":    ms(s.WriteLatency.P99),
			"get_p50_ms":    ms(s.ReadLatency.P50),
			"get_p99_ms":    ms(s.ReadLatency.P99),
			"fast_frac":     s.FastFrac,
			"rounds_per_op": s.RoundsPerOp,
			"ok_frac":       okFrac,
			"cpu_us_per_op": cpuPerOp,
		} {
			cols[k] = append(cols[k], v)
		}
	}
	out := map[string]metric{
		"setup_s":    {median(p.setups).Seconds(), "s"},
		"max_rss_mb": {float64(p.usage.maxRSS) / 1024, "MiB"},
	}
	units := map[string]string{
		"goodput_ops_s": "ops/s", "put_p50_ms": "ms", "put_p99_ms": "ms", "get_p50_ms": "ms",
		"get_p99_ms": "ms", "fast_frac": "ratio", "rounds_per_op": "rounds", "ok_frac": "ratio",
		"cpu_us_per_op": "us",
	}
	for k, vs := range cols {
		sort.Float64s(vs)
		out[k] = metric{(vs[(len(vs)-1)/2] + vs[len(vs)/2]) / 2, units[k]}
	}
	return out
}

func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// usage is the process's CPU time at each slice boundary of the window
// and its peak resident set at the window's end (KiB), since the pass
// reset it.
type usage struct {
	cpu    []time.Duration
	maxRSS int64
	err    error
}

// sampleUsage reads the process's resource usage at start + k·window/
// windowParts for k = 0..windowParts, delivering the readings once the
// window has ended — before the generators copy out their histories.
func sampleUsage(start time.Time, window time.Duration) <-chan usage {
	ch := make(chan usage, 1)
	go func() {
		u := usage{cpu: make([]time.Duration, windowParts+1)}
		for k := range u.cpu {
			time.Sleep(time.Until(start.Add(window * time.Duration(k) / windowParts)))
			u.cpu[k] = cpuTime()
		}
		u.maxRSS, u.err = peakRSS()
		ch <- u
	}()
	return ch
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's record of this process's peak
// resident set (Linux, see proc(5) clear_refs), so that the next reading
// covers only what runs from here on.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak memory: %w", err)
	}
	return nil
}

// peakRSS reads the process's peak resident set since the last reset, in
// KiB (VmHWM in /proc/self/status).
func peakRSS() (int64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak memory: %w", err)
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("read peak memory: no VmHWM in /proc/self/status")
}
