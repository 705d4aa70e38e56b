package main

import (
	"context"
	"sync"
	"time"
)

type layerReport struct {
	Metrics map[string]metric
	traced  *phase
	walk    *phase // spill: the tier walk after the replay
}

// layers runs the traced phase after the untraced one (base), replays its
// requests in process, and splits request time by layer. Spans come from
// this benchmark's own calls into each module: the root span is the client
// request, its children the wire decode and the HTTP round trip, and the
// round trip's children the replayed engine calls. server.self_ms is the
// round trip minus those children, so unattributed_frac covers only client
// time outside the round trip and the decode, plus any replay that outlasts
// the served request (a negative share).
func (e *env) layers(ctx context.Context, length time.Duration, base *phase) (*layerReport, error) {
	h0, err := e.c.sc.Health(ctx)
	if err != nil {
		return nil, err
	}
	// The monitor samples the disk tier while the phase runs: the deepest
	// flusher queue, and the last segment bytes per demoted result.
	var backlog, diskBytes, demoted float64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if e.store {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(50 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				if h, err := e.c.sc.Health(ctx); err == nil {
					backlog = max(backlog, counter(h, "flusher_queue_depth"))
					diskBytes, demoted = counter(h, "disk_bytes"), counter(h, "demoted_results")
				}
			}
		}()
	}
	tp := &phase{}
	var h1 map[string]any
	var drain time.Duration
	e.run(ctx, deadline(length), tp, true, func() {
		close(stop)
		wg.Wait()
		if h1, err = e.c.sc.Health(ctx); err == nil {
			drain, err = e.drain(ctx)
		}
	})
	if err != nil {
		return nil, err
	}
	recs, err := e.replay(ctx, tp.records, length)
	if err != nil {
		return nil, err
	}
	var walk *phase
	if e.store {
		walk = &phase{}
		if err := e.tierWalk(ctx, walk); err != nil {
			return nil, err
		}
	}

	var (
		root, decode, self, gather, engine int64
		bytes                              int
		nq, nt                             int
		q                                  spans // summed over replayed queries
		t                                  spans // summed over replayed traces
	)
	for _, r := range recs {
		root += r.rootNs
		decode += r.decodeNs
		bytes += r.bytes
		gather += r.gather
		eng := int64(0)
		if r.replayed {
			eng = r.sp.engine()
		}
		engine += eng
		self += max(0, r.httpNs-r.gather-eng)
		if !r.replayed {
			continue
		}
		if r.kind == stepQuery {
			nq++
			q.parse += r.sp.parse
			q.lower += r.sp.lower
			q.optimize += r.sp.optimize
			q.run += r.sp.run
			q.runSerial += r.sp.runSerial
			q.capture += r.sp.capture
			q.memBytes += r.sp.memBytes
			q.scanned += r.sp.scanned
		} else {
			nt++
			t.trace += r.sp.trace
			t.consume += r.sp.consume
			t.rids += r.sp.rids
		}
	}
	n := len(recs)
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	perQ := func(ns int64) float64 { return ms(ns) / float64(max(1, nq)) }
	perT := func(ns int64) float64 { return ms(ns) / float64(max(1, nt)) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	put("sql.parse_ms", perQ(q.parse), "ms")
	put("sql.lower_ms", perQ(q.lower), "ms")
	put("plan.optimize_ms", perQ(q.optimize), "ms")
	put("exec.run_ms", perQ(q.run), "ms")
	put("lineage.capture_ms", perQ(q.capture), "ms")
	put("lineage.capture_overhead", ratio(float64(q.capture), float64(q.run)), "ratio")
	put("lineage.bytes_per_input_row", ratio(float64(q.memBytes), float64(q.scanned)), "B/row")
	put("pool.speedup_w2", ratio(float64(q.runSerial), float64(q.run)), "ratio")
	put("lineage.trace_ms", perT(t.trace), "ms")
	put("lineage.rids_per_trace", ratio(float64(t.rids), float64(nt)), "count")
	put("ops.consume_ms", perT(t.consume), "ms")
	put("server.self_ms", ms(self)/float64(max(1, n)), "ms")
	put("server.cache_hit_ratio", ratio(float64(tp.cached), float64(tp.requests)), "ratio")
	put("server.ingest_ms", ms(e.ingestNs), "ms")
	put("wire.decode_ms", ms(decode)/float64(max(1, n)), "ms")
	put("wire.response_bytes", ratio(float64(bytes), float64(n)), "B")
	put("shard.gather_ms", ms(gather)/float64(max(1, n)), "ms")
	put("shard.calls_per_request", ratio(shardCalls(h1)-shardCalls(h0), float64(tp.attempted)), "count")

	traces := float64(len(tp.traceMS))
	delta := func(k string) float64 { return counter(h1, k) - counter(h0, k) }
	put("diskstore.demotes", delta("demotes"), "count")
	put("diskstore.promotes", delta("promotes"), "count")
	put("diskstore.insitu_ratio", ratio(delta("insitu_traces"), traces), "ratio")
	put("diskstore.lazy_ratio", ratio(delta("lazy_traces"), traces), "ratio")
	put("diskstore.bytes_per_user_byte",
		ratio(diskBytes, demoted*float64(e.captureBytes)), "ratio")
	put("diskstore.flush_backlog_max", backlog, "count")
	put("diskstore.drain_ms", ms(drain.Nanoseconds()), "ms")

	put("query_samples", float64(len(base.queryMS)), "count")
	put("trace_samples", float64(len(base.traceMS)), "count")
	put("tracing_overhead_frac",
		ratio(float64(base.attempted-base.failed)/base.elapsed.Seconds(),
			float64(tp.attempted-tp.failed)/tp.elapsed.Seconds())-1, "frac")
	put("unattributed_frac", ratio(float64(root-decode-gather-self-engine), float64(root)), "frac")
	put("replayed_requests", float64(n), "count")
	return &layerReport{Metrics: m, traced: tp, walk: walk}, nil
}
