package shard

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"

	"smoke/internal/core"
	"smoke/internal/exec"
	"smoke/internal/expr"
	"smoke/internal/lineage"
	"smoke/internal/ops"
	"smoke/internal/plan"
	"smoke/internal/serr"
	"smoke/internal/server"
	"smoke/internal/serverclient"
	"smoke/internal/sql"
)

// handleTrace runs a bound trace against a retained result. Results retained
// whole on the session's home shard (and every result in a single-shard
// deployment) proxy untouched — exact single-node behavior. Results gathered
// from scattered partials translate between the global and the shard-local
// rid spaces here, which is precisely why a seed that is valid globally but
// out of range for any single shard's slice must never 400: validation runs
// against the GLOBAL spaces (the merged output for backward, the whole base
// table for forward) before any shard sees a translated local rid.
func (c *Coordinator) handleTrace(w http.ResponseWriter, r *http.Request) {
	id, name := r.PathValue("id"), r.PathValue("name")
	sess, err := c.lookupSession(id)
	if err != nil {
		server.WriteError(w, err)
		return
	}
	body, err := readBody(w, r)
	if err != nil {
		server.WriteError(w, err)
		return
	}
	var req serverclient.TraceRequest
	if err := decodeRequest(body, &req); err != nil {
		server.WriteError(w, err)
		return
	}
	if err := c.enter(); err != nil {
		server.WriteError(w, err)
		return
	}
	defer c.exit()

	p := sess.placementOf(name)
	if p == nil || !p.scattered {
		// Home-shard result (or a name the coordinator never placed — e.g. a
		// trace result the home shard retained itself): forward untouched and
		// let the shard answer, including its own 404/410 bookkeeping.
		c.proxied.Add(1)
		ctx, cancel := context.WithTimeout(r.Context(), c.timeout)
		defer cancel()
		path := "/v1/sessions/" + sess.shardIDs[sess.home] + "/results/" + name + "/trace"
		res, err := c.nodes[sess.home].invoke(ctx, http.MethodPost, path, body, "application/json")
		if err != nil {
			c.shardTimeouts.Add(1)
			server.WriteError(w, err)
			return
		}
		writeShardReply(w, res)
		return
	}

	out, err := c.runScatteredTrace(r.Context(), sess, name, p, req)
	if err != nil {
		server.WriteError(w, err)
		return
	}
	c.mergedTraces.Add(1)
	server.WriteJSON(w, http.StatusOK, out)
}

// runScatteredTrace validates, routes, and gathers a trace against a
// scattered placement.
func (c *Coordinator) runScatteredTrace(ctx context.Context, sess *session, name string, p *placement, req serverclient.TraceRequest) (*serverclient.Result, error) {
	backward := false
	switch strings.ToLower(req.Direction) {
	case "backward":
		backward = true
	case "forward":
	default:
		return nil, serr.New(serr.Invalid, "server: direction must be backward or forward, got %q", req.Direction)
	}
	if req.Table == "" {
		return nil, serr.New(serr.Invalid, "server: trace needs a table")
	}
	if req.Rids != nil && req.SeedWhere != "" {
		return nil, serr.New(serr.Invalid, "server: rids and seed_where are mutually exclusive")
	}
	if req.Table != p.table {
		// A scattered capture records lineage to the sharded table per shard.
		// Tracing into a REPLICATED base relation would gather each shard's
		// rids over the same full copy — overlapping lists whose merged order
		// no longer matches a single node's — so it is fenced, not wrong.
		return nil, serr.New(serr.Unsupported,
			"shard: traces against a scattered result must address the sharded table %q, not %q", p.table, req.Table)
	}
	if req.Retain != "" {
		return nil, serr.New(serr.Unsupported,
			"shard: retaining a trace of a scattered result is not supported; re-run the consuming query as a retained base query")
	}
	for _, a := range req.Aggs {
		fn, err := server.ParseAggFn(a.Fn)
		if err != nil {
			return nil, err
		}
		if fn == ops.CountDistinct {
			return nil, serr.New(serr.Unsupported, "shard: COUNT(DISTINCT) does not decompose across shards; not supported")
		}
	}
	params, err := server.ParamsFromJSON(req.Params)
	if err != nil {
		return nil, err
	}
	if backward {
		return c.backwardScattered(ctx, sess, name, p, req, params)
	}
	return c.forwardScattered(ctx, sess, name, p, req, params)
}

// seedSlots resolves a backward trace's seeds to GLOBAL output slots, in
// seed order: explicit rids validated against the merged output's row count,
// a seed predicate evaluated over the merged output (slot order), or — with
// neither — every slot (the zero-seed "trace everything" expansion the
// engine itself uses). The parsed seed predicate is returned alongside for
// the engine's scan-equivalence test.
func (p *placement) seedSlots(req serverclient.TraceRequest, params expr.Params) ([]lineage.Rid, expr.Expr, error) {
	if req.Rids != nil {
		slots := make([]lineage.Rid, len(req.Rids))
		for i, v := range req.Rids {
			if v < 0 || v >= int64(p.merged.N) {
				return nil, nil, serr.New(serr.Invalid,
					"server: seed rid %d out of range [0,%d) for result output rows", v, p.merged.N)
			}
			slots[i] = lineage.Rid(v)
		}
		return slots, nil, nil
	}
	if req.SeedWhere != "" {
		pred, err := sql.ParseExpr(req.SeedWhere)
		if err != nil {
			return nil, nil, err
		}
		rel, err := server.ResultRelation("merged", p.merged)
		if err != nil {
			return nil, nil, err
		}
		cp, err := expr.CompilePred(pred, rel, params)
		if err != nil {
			return nil, nil, serr.New(serr.Invalid, "server: trace seed predicate: %v", err)
		}
		slots := []lineage.Rid{}
		for i := 0; i < rel.N; i++ {
			if cp(int32(i)) {
				slots = append(slots, lineage.Rid(i))
			}
		}
		return slots, pred, nil
	}
	all := make([]lineage.Rid, p.merged.N)
	for i := range all {
		all[i] = lineage.Rid(i)
	}
	return all, nil, nil
}

// backwardPath resolves which trace path answers a backward trace of this
// placement: "eager" (captured index, per-seed expansion) or "lazy" (plan
// re-execution, scan-collapsible). A per-trace strategy forces it; otherwise
// the placement's resolved capture strategy routes — hybrid captures the
// backward direction eagerly. "" means unknowable: the placement ran under
// strategy auto, whose resolution reads per-node runtime counters. The
// per-trace strategy parses and validates as the server's does.
func (p *placement) backwardPath(reqStrategy string) (string, error) {
	forced, err := core.ParseStrategy(reqStrategy)
	if err == nil {
		forced, err = core.TracePath(forced)
	}
	if err != nil {
		return "", err
	}
	if forced != core.StrategyDefault {
		return forced.String(), nil
	}
	return tracePathOf(p.strategy), nil
}

// tracePathOf maps a resolved capture strategy to its backward trace path;
// "" for auto.
func tracePathOf(strategy string) string {
	switch strategy {
	case "lazy":
		return "lazy"
	case "eager", "hybrid":
		return "eager"
	}
	return ""
}

// shardTraceBody renders the per-shard request: same trace, shard-local
// seeds (the seed predicate was already resolved globally). marshal cannot
// fail on these field types.
func shardTraceBody(req serverclient.TraceRequest, rids []int64, keepWhere bool) []byte {
	req.Rids, req.SeedWhere, req.Retain = rids, "", ""
	if !keepWhere {
		req.Where = ""
	}
	b, _ := json.Marshal(req)
	return b
}

// tracePath renders a shard's trace endpoint for the session's peer id.
func (sess *session) tracePath(shard int, name string) string {
	return "/v1/sessions/" + sess.shardIDs[shard] + "/results/" + name + "/trace"
}

// emptyTrace answers a zero-seed trace by asking one shard for its (empty)
// result — the cheapest way to produce the exactly-right output schema for
// every trace shape without re-deriving it coordinator-side.
func (c *Coordinator) emptyTrace(ctx context.Context, sess *session, name string, req serverclient.TraceRequest, keepWhere bool) (*serverclient.Result, error) {
	parts, err := c.scatter(ctx, []int{0}, func(int) (string, string, []byte) {
		return http.MethodPost, sess.tracePath(0, name), shardTraceBody(req, []int64{}, keepWhere)
	})
	if err != nil {
		return nil, err
	}
	return emptyLike(parts[0]), nil
}

// backwardScattered gathers a backward trace. It takes the engine's own
// path decision — made per node by exec.backwardRids with LOCAL numbers —
// with GLOBAL ones:
//
//   - the per-seed index path expands every seed's captured rid list in seed
//     order. Coordinator equivalent: one scatter wave per seed to the shards
//     whose partial contributed to the seed's merged group, cells
//     concatenated seed-major shard-minor (shard slices are rid-contiguous
//     in shard order, so that IS the single node's capture append order).
//   - the scan path — taken when the trace collapses to a filtered scan
//     (plan.TraceScanEquiv over the placement's plan) and the seeds cover
//     the share exec.PreferScan asks for (eager), or always on the lazy
//     path — answers with one filtered scan of the base table in rid order.
//     Coordinator equivalent: run that trace through the engine over the
//     global relation it already holds, no shard round-trip at all.
//
// Consuming traces (group_by + aggs) on the per-seed path fold the cells
// through the two-phase grouped merge; on the scan path the engine
// aggregates the scanned rows itself.
func (c *Coordinator) backwardScattered(ctx context.Context, sess *session, name string, p *placement, req serverclient.TraceRequest, params expr.Params) (*serverclient.Result, error) {
	// Join placements never collapse to a scan and always take the per-seed
	// path, which is order-exact for them: the analyzer admits joins only
	// with the sharded table as the probe side, so each group's captured
	// lineage list is its probe rows in slice rid order — shard-minor
	// concatenation IS the single node's capture order. No scan rewrite
	// exists for the join shape on a single node either, which also makes
	// the path strategy-independent (auto included).
	slots, seedPred, err := p.seedSlots(req, params)
	if err != nil {
		return nil, err
	}
	if len(slots) == 0 {
		return c.emptyTrace(ctx, sess, name, req, true)
	}

	// With a single seed the two paths are row-identical (one group's
	// captured list is its rows in rid order), so only multi-seed traces
	// need the decision — which keeps single-seed crossfilter interactions
	// on the cheap per-seed path under every strategy, including auto.
	node := plan.Backward{Source: p.plan, Table: p.table, Rel: p.tbl.rel, SeedPred: seedPred}
	if req.Rids != nil {
		node.SeedRids = slots
	}
	if _, ok := plan.TraceScanEquiv(node); ok && len(slots) >= 2 {
		path, err := p.backwardPath(req.Strategy)
		if err != nil {
			return nil, err
		}
		switch {
		case exec.PreferScan(len(slots), p.merged.N), path == "lazy":
			if path == "" {
				// Strategy auto: echo the path the shards resolved it to at
				// run time, as a single node's trace reply does.
				path = tracePathOf(p.merged.StrategyUsed)
			}
			return c.scanBackward(node, req, params, path)
		case path == "":
			return nil, serr.New(serr.Unsupported,
				"shard: this trace's row order depends on strategy auto's per-node cost decision; request an explicit strategy or seed fewer rows")
		}
	}

	cells, err := c.perSeedCells(ctx, sess, name, p, req, slots)
	if err != nil {
		return nil, err
	}
	if len(req.GroupBy) > 0 || len(req.Aggs) > 0 {
		merged, _, err := mergeGrouped(cells, len(req.GroupBy), reqAggs(req))
		return merged, err
	}
	return concatCells(cells), nil
}

// perSeedCells runs one scatter wave per seed: a shard's reply carries no
// per-seed boundaries, so batching a shard's seeds into one request would
// lose the seed-major interleave a single node produces. Crossfilter-style
// interactions seed one output row, so the common case is exactly one wave.
func (c *Coordinator) perSeedCells(ctx context.Context, sess *session, name string, p *placement, req serverclient.TraceRequest, slots []lineage.Rid) ([]*serverclient.Result, error) {
	var cells []*serverclient.Result
	for _, g := range slots {
		var participants []int
		for s, local := range p.gm.globalToLocal[g] {
			if local >= 0 {
				participants = append(participants, s)
			}
		}
		parts, err := c.scatter(ctx, participants, func(s int) (string, string, []byte) {
			local := int64(p.gm.globalToLocal[g][s])
			return http.MethodPost, sess.tracePath(s, name), shardTraceBody(req, []int64{local}, true)
		})
		if err != nil {
			return nil, err
		}
		cells = append(cells, parts...)
	}
	return cells, nil
}

func reqAggs(req serverclient.TraceRequest) []ops.AggFn {
	aggs := make([]ops.AggFn, len(req.Aggs))
	for i, a := range req.Aggs {
		aggs[i], _ = server.ParseAggFn(a.Fn) // validated in runScatteredTrace
	}
	return aggs
}

// scanBackward answers a scan-path backward trace the way a single node's
// lazy trace does: the unbound trace node over the placement's plan and
// capture-time relation, consumed exactly as the server consumes a trace
// (server.Consume), runs through the engine, whose trace-rewrite collapses
// it to one filtered scan (statement filters ∧ seed predicate ∧ trace
// filter) in rid order. The coordinator holds the global base relation — it
// is the ingest point — so no shard is asked.
func (c *Coordinator) scanBackward(node plan.Backward, req serverclient.TraceRequest, params expr.Params, path string) (*serverclient.Result, error) {
	if _, err := server.CaptureMode(req.Capture, ops.None); err != nil {
		return nil, err
	}
	q, err := server.Consume(c.db.QueryBackward(node), req)
	if err != nil {
		return nil, err
	}
	res, err := q.Run(core.CaptureOptions{Params: params})
	if err != nil {
		return nil, err
	}
	out := server.RenderRelation(res.Out)
	out.GroupCounts = res.GroupCounts
	out.StrategyUsed = path
	return &out, nil
}

// concatCells concatenates non-consuming trace cells in order.
func concatCells(cells []*serverclient.Result) *serverclient.Result {
	out := &serverclient.Result{Columns: cells[0].Columns, Types: cells[0].Types, Rows: [][]any{}}
	strategy, uniform := cells[0].StrategyUsed, true
	for _, cell := range cells {
		out.Rows = append(out.Rows, cell.Rows...)
		out.N += cell.N
		if cell.StrategyUsed != strategy {
			uniform = false
		}
	}
	if uniform {
		out.StrategyUsed = strategy
	}
	return out
}

// forwardScattered gathers a forward trace: seeds address the sharded base
// table's GLOBAL rid space, translate to shard-local rids, and route only to
// the owning shard (the seed-range routing of the issue — non-owning shards
// never see the request). Each shard answers its partial output rows for its
// seeds in seed order; the coordinator maps every reply row to the merged
// global row by group identity and applies the consuming filter against the
// MERGED values, because the shard-local partial aggregates are not the
// values a single node's filter would see.
func (c *Coordinator) forwardScattered(ctx context.Context, sess *session, name string, p *placement, req serverclient.TraceRequest, params expr.Params) (*serverclient.Result, error) {
	if len(req.GroupBy) > 0 || len(req.Aggs) > 0 {
		return nil, serr.New(serr.Unsupported,
			"shard: consuming forward traces of a scattered result are not supported")
	}
	// The placement snapshot, not the live book: seeds address the
	// capture-time relation, which survives a re-ingest the same way a single
	// node's bound trace does.
	t := p.tbl

	// Resolve global base-row seeds in seed order.
	var seeds []int
	switch {
	case req.Rids != nil:
		seeds = make([]int, len(req.Rids))
		for i, v := range req.Rids {
			if v < 0 || v >= int64(t.rel.N) {
				return nil, serr.New(serr.Invalid,
					"server: seed rid %d out of range [0,%d) for base rows of %s", v, t.rel.N, p.table)
			}
			seeds[i] = int(v)
		}
	case req.SeedWhere != "":
		pred, err := sql.ParseExpr(req.SeedWhere)
		if err != nil {
			return nil, err
		}
		cp, err := expr.CompilePred(pred, t.rel, params)
		if err != nil {
			return nil, serr.New(serr.Invalid, "server: trace seed predicate: %v", err)
		}
		for i := 0; i < t.rel.N; i++ {
			if cp(int32(i)) {
				seeds = append(seeds, i)
			}
		}
		if seeds == nil {
			seeds = []int{}
		}
	default:
		seeds = make([]int, t.rel.N)
		for i := range seeds {
			seeds[i] = i
		}
	}
	if len(seeds) == 0 {
		return c.emptyTrace(ctx, sess, name, req, false)
	}

	// Optional consuming filter, evaluated over the MERGED output rows:
	// precompute a per-slot mask once.
	var mask []bool
	if req.Where != "" {
		pred, err := sql.ParseExpr(req.Where)
		if err != nil {
			return nil, err
		}
		rel, err := server.ResultRelation("merged", p.merged)
		if err != nil {
			return nil, err
		}
		cp, err := expr.CompilePred(pred, rel, params)
		if err != nil {
			return nil, serr.New(serr.Invalid, "server: trace filter: %v", err)
		}
		mask = make([]bool, rel.N)
		for i := 0; i < rel.N; i++ {
			mask[i] = cp(int32(i))
		}
	}

	// Maximal same-owner seed runs, one shard request per run: the shard
	// answers its seeds' reached rows in seed order, so run-order concat is
	// the global seed-order concat.
	out := &serverclient.Result{Columns: p.merged.Columns, Types: p.merged.Types, Rows: [][]any{}}
	strategy, uniform, first := "", true, true
	for i := 0; i < len(seeds); {
		owner := t.ownerOf(seeds[i])
		j := i
		var locals []int64
		for ; j < len(seeds) && t.ownerOf(seeds[j]) == owner; j++ {
			locals = append(locals, int64(seeds[j]-t.starts[owner]))
		}
		parts, err := c.scatter(ctx, []int{owner}, func(int) (string, string, []byte) {
			return http.MethodPost, sess.tracePath(owner, name), shardTraceBody(req, locals, false)
		})
		if err != nil {
			return nil, err
		}
		cell := parts[0]
		for _, row := range cell.Rows {
			if len(row) < p.nKeys {
				return nil, serr.New(serr.Internal, "shard: forward trace row narrower than the group key")
			}
			slot, ok := p.gm.keyToGlobal[encodeKey(row[:p.nKeys])]
			if !ok {
				return nil, serr.New(serr.Internal, "shard: forward trace reached a group absent from the merged result")
			}
			if mask != nil && !mask[slot] {
				continue
			}
			out.Rows = append(out.Rows, p.merged.Rows[slot])
			out.N++
		}
		if first {
			strategy, first = cell.StrategyUsed, false
		} else if cell.StrategyUsed != strategy {
			uniform = false
		}
		i = j
	}
	if uniform && !first {
		out.StrategyUsed = strategy
	}
	return out, nil
}
