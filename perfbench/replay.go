package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"smoke/internal/core"
	"smoke/internal/expr"
	"smoke/internal/lineage"
	"smoke/internal/ops"
	"smoke/internal/plan"
	"smoke/internal/serverclient"
	"smoke/internal/sql"
)

// spans holds the in-process replay of one request, split by the module
// each call goes into (nanoseconds).
type spans struct {
	parse, lower, optimize int64 // internal/sql, internal/plan
	run, runSerial         int64 // internal/exec + ops, capture off, at 2 and 1 workers
	capture                int64 // extra time of the same run with eager capture
	memBytes               int64 // Result.MemBytes of the captured run
	scanned                int   // base rows the plan reads
	trace                  int64 // core.Result.Trace: the rid list alone
	consume                int64 // rest of the consuming trace query
	rids                   int
}

// engine is the replayed time a request spent in engine modules.
func (s spans) engine() int64 {
	return s.parse + s.lower + s.optimize + s.run + s.capture + s.trace + s.consume
}

// replayQuery runs src in process through each layer the server's query
// path calls: parse, lower, optimize (with the fingerprint the cache keys
// on), then execution with eager capture, without capture, and serially.
func replayQuery(db *core.DB, src string, sp *spans) (*core.Result, error) {
	t := time.Now()
	st, err := sql.Parse(src)
	if err != nil {
		return nil, err
	}
	sp.parse = lap(&t)
	node, err := sql.Lower(db, st)
	if err != nil {
		return nil, err
	}
	sp.lower = lap(&t)
	optimized := plan.OptimizeNoTrace(node, plan.Opts{Catalog: db.Catalog()})
	_ = plan.Fingerprint(optimized)
	sp.optimize = lap(&t)
	q := db.QueryPlan(node)
	res, err := q.Run(core.CaptureOptions{Mode: ops.Inject})
	if err != nil {
		return nil, err
	}
	withCapture := lap(&t)
	if _, err := q.Run(core.CaptureOptions{Mode: ops.None}); err != nil {
		return nil, err
	}
	sp.run = lap(&t)
	if _, err := q.Run(core.CaptureOptions{Mode: ops.None, Parallelism: 1}); err != nil {
		return nil, err
	}
	sp.runSerial = lap(&t)
	sp.capture = max(0, withCapture-sp.run)
	sp.memBytes = res.MemBytes()
	sp.scanned = rowsScanned(plan.Bases(optimized, nil))
	return res, nil
}

// replayTrace runs a bound trace step against res in process: the rid list
// alone (core.Result.Trace), then the consuming query the server builds for
// it. With sp nil it only returns the consuming query's answer.
func replayTrace(db *core.DB, res *core.Result, st step, sp *spans) (*core.Result, error) {
	dir := core.TraceBackward
	if strings.EqualFold(st.trace.Direction, "forward") {
		dir = core.TraceForward
	}
	rids := make([]lineage.Rid, len(st.trace.Rids))
	for i, r := range st.trace.Rids {
		rids[i] = lineage.Rid(r)
	}
	seed := core.Rids(rids...)
	t := time.Now()
	if sp != nil {
		got, err := res.Trace(dir, st.trace.Table, seed)
		if err != nil {
			return nil, err
		}
		sp.rids = len(got)
		sp.trace = lap(&t)
	}
	q := db.Query().Trace(res, dir, st.trace.Table, seed)
	if len(st.trace.GroupBy) > 0 {
		q = q.GroupBy(st.trace.GroupBy...)
	}
	for _, a := range st.trace.Aggs {
		fn, err := aggFn(a.Fn)
		if err != nil {
			return nil, err
		}
		var arg expr.Expr
		if a.Arg != "" {
			if arg, err = sql.ParseScalarExpr(a.Arg); err != nil {
				return nil, err
			}
		}
		q = q.Agg(fn, arg, a.Name)
	}
	out, err := q.Run(core.CaptureOptions{})
	if err != nil {
		return nil, err
	}
	if sp != nil {
		sp.consume = max(0, lap(&t)-sp.trace)
	}
	return out, nil
}

func aggFn(s string) (ops.AggFn, error) {
	switch s {
	case "count":
		return ops.Count, nil
	case "sum":
		return ops.Sum, nil
	}
	return 0, fmt.Errorf("aggregate %q is not scripted", s)
}

// lap returns the nanoseconds since *t and restarts it.
func lap(t *time.Time) int64 {
	now := time.Now()
	d := now.Sub(*t).Nanoseconds()
	*t = now
	return d
}

// attributed is one traced request with its replayed layers.
type attributed struct {
	record
	sp       spans
	replayed bool  // engine layers replayed (not a cache hit)
	gather   int64 // shard: coordinator minus single-node round trip, idle
}

// replay re-issues the requests of a traced phase in process, session by
// session in the order they were recorded, until budget runs out. On a
// shard coordinator each request is also sent again, idle, to the
// coordinator and to a single node over the same data, and their
// difference is the scatter/gather cost.
func (e *env) replay(ctx context.Context, recs []record, budget time.Duration) ([]attributed, error) {
	deadline := time.Now().Add(budget)
	bySession := map[int][]record{}
	var order []int
	for _, r := range recs {
		if _, ok := bySession[r.session]; !ok {
			order = append(order, r.session)
		}
		bySession[r.session] = append(bySession[r.session], r)
	}
	var out []attributed
	for _, idx := range order {
		if time.Now().After(deadline) {
			break
		}
		got, err := e.replaySession(ctx, idx, bySession[idx])
		if err != nil {
			return nil, fmt.Errorf("replay session %d: %w", idx, err)
		}
		out = append(out, got...)
	}
	return out, nil
}

func (e *env) replaySession(ctx context.Context, idx int, recs []record) ([]attributed, error) {
	steps := e.script(idx)
	views := map[string]*core.Result{}
	var coordSess, singleSess *serverclient.Session
	if e.single != nil {
		for _, side := range []struct {
			c *client
			s **serverclient.Session
		}{{e.c, &coordSess}, {e.single, &singleSess}} {
			s, err := side.c.sc.NewSession(ctx)
			if err != nil {
				return nil, err
			}
			defer s.Close(ctx)
			*side.s = s
		}
	}
	byStep := map[int]record{}
	last := -1
	for _, r := range recs {
		byStep[r.step] = r
		last = max(last, r.step)
	}
	var out []attributed
	for i := 0; i <= last; i++ {
		st := steps[i]
		a := attributed{replayed: !(st.repeat && e.cacheOn)}
		var err error
		switch {
		case st.kind == stepQuery:
			views[st.view], err = replayQuery(e.ref, st.query.SQL, &a.sp)
		case a.replayed:
			_, err = replayTrace(e.ref, views[st.view], st, &a.sp)
		}
		if err != nil {
			return nil, fmt.Errorf("step %d (%s): %w", i, st.class, err)
		}
		if e.single != nil {
			var coord, single int64
			for _, side := range []struct {
				c  *client
				s  *serverclient.Session
				ns *int64
			}{{e.c, coordSess, &coord}, {e.single, singleSess, &single}} {
				r := side.c.do(ctx, side.s, st)
				if r.err != nil {
					return nil, fmt.Errorf("step %d (%s): %w", i, st.class, r.err)
				}
				*side.ns = r.httpNs
			}
			a.gather = max(0, coord-single)
		}
		if r, ok := byStep[i]; ok {
			a.record = r
			out = append(out, a)
		}
	}
	return out, nil
}
