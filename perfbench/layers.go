package main

import (
	"cmp"
	"slices"
	"time"

	"luckystore/internal/checker"
	"luckystore/internal/core"
	"luckystore/internal/metrics"
	"luckystore/internal/workload"
)

// perLayer reduces a traced pass's spans and registry counters to the
// per-layer metrics. Ratios are per successful operation (or per
// thousand, "_per_kop") of the measured window.
func (p *pass) perLayer() map[string]metric {
	spans := p.trace.spans()
	ops := float64(p.attempted - p.failed)
	puts := workload.Summarize(ofKind(p.timed, checker.KindWrite), p.window)
	gets := workload.Summarize(ofKind(p.timed, checker.KindRead), p.window)
	per := func(n int64) float64 {
		if ops == 0 {
			return 0
		}
		return float64(n) / ops
	}
	delta := func(f func(counters) int64) int64 { return f(p.after) - f(p.before) }

	// Sorting by (parent, start) lines every kv call's step children up
	// in time order behind one another.
	slices.SortFunc(spans, func(a, b span) int {
		return cmp.Or(cmp.Compare(a.parent, b.parent), cmp.Compare(a.start, b.start))
	})
	var (
		kvSpans          = make(map[uint32]span)
		steps, stepSelf  []time.Duration
		commits, sends   []time.Duration
		widthSum, nSend  int64
		putSelf, getSelf []time.Duration
	)
	for _, s := range spans {
		switch s.kind {
		case spanKVPut, spanKVGet:
			kvSpans[s.id] = s
		case spanStep:
			steps = append(steps, s.dur())
			stepSelf = append(stepSelf, s.dur()-time.Duration(s.child))
		case spanStorageCommit:
			commits = append(commits, s.dur())
		case spanSend:
			sends = append(sends, s.dur())
			widthSum += int64(s.width)
			nSend++
		}
	}
	// A kv call's self time is its span minus the union of its step
	// children, each clipped to the call.
	covered := make(map[uint32]int64, len(kvSpans))
	var (
		cur   uint32
		reach int64 // furthest child end counted so far for call cur
	)
	for _, s := range spans {
		call, ok := kvSpans[s.parent]
		if s.kind != spanStep || !ok {
			continue
		}
		if s.parent != cur {
			cur, reach = s.parent, call.start
		}
		if lo, end := max(s.start, reach), min(s.end, call.end); end > lo {
			covered[cur] += end - lo
			reach = end
		}
	}
	for id, s := range kvSpans {
		self := s.dur() - time.Duration(covered[id])
		if s.kind == spanKVPut {
			putSelf = append(putSelf, self)
		} else {
			getSelf = append(getSelf, self)
		}
	}

	// Queue wait is service time (submit to reply filled, from the
	// registry's histograms) minus step time; both medians come from the
	// same power-of-two histogram estimator so their bucket error cancels.
	service, stepHist := &metrics.Histogram{}, &metrics.Histogram{}
	for _, h := range p.trace.serverM.Service {
		service.Merge(h)
	}
	for _, d := range steps {
		stepHist.Observe(d)
	}
	queueWait := max(service.Quantile(0.50)-stepHist.Quantile(0.50), 0)
	widthMean := 0.0
	if nSend > 0 {
		widthMean = float64(widthSum) / float64(nSend)
	}
	fsyncs := delta(func(c counters) int64 { return c.fsyncs })
	recsPerFsync := 0.0
	if fsyncs > 0 {
		recsPerFsync = float64(delta(func(c counters) int64 { return c.flushRecords })) / float64(fsyncs)
	}
	userBytes := int64(puts.Ops) * valueSize
	bytesPerUser := 0.0
	if userBytes > 0 {
		bytesPerUser = float64(delta(func(c counters) int64 { return c.flushBytes })) / float64(userBytes)
	}
	commit := durationSummary(commits)

	return map[string]metric{
		"kv.self_us_p50.put":          {us(metrics.Summarize(putSelf).P50), "us"},
		"kv.self_us_p50.get":          {us(metrics.Summarize(getSelf).P50), "us"},
		"core.fast_frac.put":          {puts.FastFrac, "ratio"},
		"core.fast_frac.get":          {gets.FastFrac, "ratio"},
		"core.timer_expiries_per_kop": {1000 * per(p.timerExpiries()), timerProxyUnit},
		"core.retransmits_per_kop":    {1000 * per(delta(func(c counters) int64 { return c.retransmits })), "count"},
		"transport.send_us_p50":       {us(metrics.Summarize(sends).P50), "us"},
		"transport.batch_width":       {widthMean, "msgs"},
		"tcpnet.frames_per_op":        {per(delta(func(c counters) int64 { return c.framesOut })), "frames"},
		"tcpnet.service_us_p50":       {us(service.Quantile(0.50)), "us"},
		"tcpnet.service_us_p99":       {us(service.Quantile(0.99)), "us"},
		"tcpnet.redials":              {float64(delta(func(c counters) int64 { return c.redials })), "count"},
		"node.step_self_us_p50":       {us(metrics.Summarize(stepSelf).P50), "us"},
		"node.steps_per_op":           {per(int64(len(steps))), "steps"},
		"node.queue_wait_us_p50":      {us(queueWait), "us"},
		"node.queue_depth_max":        {float64(p.trace.depthMax.Load()), "jobs"},
		"storage.commit_us_p50":       {us(commit.P50), "us"},
		"storage.commit_us_p99":       {us(commit.P99), "us"},
		"storage.fsyncs_per_op":       {per(fsyncs), "fsyncs"},
		"storage.records_per_fsync":   {recsPerFsync, "records"},
		"storage.bytes_per_user_byte": {bytesPerUser, "ratio"},
		"storage.compactions_per_kop": {1000 * per(delta(func(c counters) int64 { return c.compactions })), "count"},
		"gen.late_us_p99":             {us(durationSummary(p.late).P99), "us"},
	}
}

// timerProxyUnit labels core.timer_expiries_per_kop as the proxy it is:
// core counts only the round-timer expiries that found less than a
// quorum (lucky_core_timer_starved_total), not every round-1 expiry.
const timerProxyUnit = "ops_ge_25ms/kop"

// timerExpiries is an upper bound on the window's round-1 timer
// expiries, inferred from latency: the successful operations that
// lasted at least one round timer from their invocation. Round 1 ends
// early only once all S servers answered, so an operation that finished
// sooner had no expiry; one that lasted longer may instead have queued
// in the kv layer before round 1, or (a batched op, timed by its batch
// call) have waited on its batch's other keys.
func (p *pass) timerExpiries() int64 {
	var n int64
	for _, op := range p.windowOps() {
		if op.Err == nil && op.Return.Sub(op.Invoke) >= core.DefaultRoundTimeout {
			n++
		}
	}
	return n
}

// durationSummary takes percentiles of raw durations through the
// summarizer the operation histories use: workload.Summarize has the p99
// that metrics.Summarize, used for the medians, lacks.
func durationSummary(ds []time.Duration) workload.LatencySummary {
	ops := make([]checker.Op, len(ds))
	var t0 time.Time
	for i, d := range ds {
		ops[i] = checker.Op{Kind: checker.KindWrite, Invoke: t0, Return: t0.Add(d)}
	}
	return workload.Summarize(ops, 0).Latency
}
