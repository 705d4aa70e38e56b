package shard

import (
	"smoke/internal/expr"
	"smoke/internal/ops"
	"smoke/internal/plan"
	"smoke/internal/serr"
	"smoke/internal/sql"
)

// route is the coordinator's execution decision for one SQL statement.
type route int

const (
	// routeProxy runs the statement on exactly one shard (replicated tables
	// only — any shard holds the full inputs, so its answer IS the answer).
	routeProxy route = iota
	// routeScatter runs the statement on every shard over its rid-range slice
	// and gathers with the two-phase grouped merge.
	routeScatter
)

// analysis is what the coordinator knows about a statement after deciding
// how to run it. For scattered statements it carries the merge recipe: the
// output schema is group keys (GROUP BY order) first, then aggregates
// (select order) — plan.OutSchema's contract — so nKeys+aggs fully describe
// how to fold the partial rows.
type analysis struct {
	route   route
	sharded string      // dist=shard table the statement reads ("" for proxy)
	tbl     *table      // its placement snapshot at analysis time
	nKeys   int         // outer statement's group-key count
	aggs    []ops.AggFn // outer statement's aggregates in select order
	plan    plan.Node   // the optimized plan over the global relations (nil if it did not lower)
}

// analyze decides how to execute stmt over the current placement and fences
// off shapes whose scatter-gather would not be element-identical to a single
// node. The fences are deliberate 422s, not silent wrong answers:
//
//   - at most one dist=shard table per statement, and it must be the
//     outermost FROM source (join sides and subqueries see partial rows
//     otherwise);
//   - COUNT(DISTINCT) does not decompose over disjoint slices without a
//     distinct-set exchange;
//   - HAVING / ORDER BY / LIMIT filter or cut on values that are only
//     correct after the merge;
//   - LINEAGE FORWARD output is the traced query's output — global groups a
//     shard cannot see whole;
//   - LINEAGE BACKWARD is scatterable only when it traces into the sharded
//     table itself and its seed predicate reads group-key columns only
//     (key values are whole on every shard; partial aggregates are not).
//
// Statements touching no sharded table take routeProxy unchanged.
func (c *Coordinator) analyze(stmt *sql.Stmt) (*analysis, error) {
	// One read lock covers the dist book and the catalog the statement
	// lowers against, so a concurrent re-ingest cannot half-apply.
	c.mu.RLock()
	defer c.mu.RUnlock()
	tables := c.tables
	shardedRefs := map[string]bool{}
	collectSharded(stmt, tables, shardedRefs)
	if len(shardedRefs) == 0 {
		return &analysis{route: routeProxy}, nil
	}
	if len(shardedRefs) > 1 {
		return nil, serr.New(serr.Unsupported, "shard: statement reads %d sharded tables; at most one is supported", len(shardedRefs))
	}
	var sharded string
	for name := range shardedRefs {
		sharded = name
	}
	if err := c.checkScatterable(stmt, sharded, tables); err != nil {
		return nil, err
	}
	a := &analysis{route: routeScatter, sharded: sharded, tbl: tables[sharded], nKeys: len(stmt.GroupBy)}
	for _, it := range stmt.Items {
		if it.Agg != nil {
			a.aggs = append(a.aggs, it.Agg.Fn)
		}
	}
	a.plan = c.lower(stmt)
	return a, nil
}

// lower lowers and optimizes stmt against the coordinator's catalog of
// global relations — the plan a single node runs and retains with its
// result. Nil means it did not lower; the shards then answer the
// statement's own error.
func (c *Coordinator) lower(stmt *sql.Stmt) plan.Node {
	n, err := sql.Lower(c.db, stmt)
	if err != nil {
		return nil
	}
	return plan.OptimizeNoTrace(n, plan.Opts{Catalog: c.db.Catalog()})
}

// collectSharded walks every FROM source of stmt (recursively through
// subqueries and lineage subs) and records referenced dist=shard tables.
func collectSharded(stmt *sql.Stmt, tables map[string]*table, out map[string]bool) {
	sources := []sql.FromItem{stmt.From}
	for _, j := range stmt.Joins {
		sources = append(sources, j.Source)
	}
	for _, f := range sources {
		if f.Table != "" {
			if t, ok := tables[f.Table]; ok && t.dist == "shard" {
				out[f.Table] = true
			}
		}
		if f.Sub != nil {
			collectSharded(f.Sub, tables, out)
		}
		if f.Trace != nil {
			if t, ok := tables[f.Trace.Table]; ok && t.dist == "shard" {
				out[f.Trace.Table] = true
			}
			if f.Trace.Sub != nil {
				collectSharded(f.Trace.Sub, tables, out)
			}
		}
	}
}

// checkScatterable validates one statement level of a scattered plan
// (lineage subs recurse; the grouped merge applies only at the top, but the
// fences apply throughout).
func (c *Coordinator) checkScatterable(stmt *sql.Stmt, sharded string, tables map[string]*table) error {
	if stmt.Having != nil {
		return serr.New(serr.Unsupported, "shard: HAVING over a sharded table filters on partial aggregates; not supported")
	}
	if len(stmt.OrderBy) > 0 || stmt.Limit >= 0 {
		return serr.New(serr.Unsupported, "shard: ORDER BY / LIMIT over a sharded table cut before the merge; not supported")
	}
	for _, it := range stmt.Items {
		if it.Agg != nil && (it.Agg.Fn == ops.CountDistinct || it.Agg.Distinct) {
			return serr.New(serr.Unsupported, "shard: COUNT(DISTINCT) does not decompose across shards; not supported")
		}
	}

	// Join statements: the sharded table must be the LAST join source. Both
	// hash-join kernels build on the left prefix and PROBE the right table,
	// so the last source drives the output order — group discovery and every
	// per-group lineage list follow its scan order. With the sharded slice
	// last, each shard's orders are its slice's rid orders, which concatenate
	// across the rid-contiguous slices into exactly the single node's global
	// orders (and the build prefix — replicated full copies — is identical
	// everywhere). With the sharded table anywhere EARLIER it sits on the
	// build side: output order then follows a replicated probe table,
	// interleaving the shards' build rows in a way values-only partials
	// cannot reconstruct, so that shape is fenced.
	if len(stmt.Joins) > 0 {
		last := stmt.Joins[len(stmt.Joins)-1].Source
		if last.Table != sharded {
			return serr.New(serr.Unsupported,
				"shard: the sharded table %q must be the LAST join source (the probe side); write FROM <replicated> JOIN ... JOIN %s", sharded, sharded)
		}
		prefix := append([]sql.FromItem{stmt.From}, joinSources(stmt.Joins[:len(stmt.Joins)-1])...)
		for _, s := range prefix {
			if s.Table == "" {
				return serr.New(serr.Unsupported, "shard: JOIN sources under sharding must be plain tables")
			}
			t, ok := tables[s.Table]
			if !ok {
				continue // unknown table: let the shard answer its own 404
			}
			if t.dist != "replicate" {
				return serr.New(serr.Unsupported, "shard: JOIN prefix table %q must be replicated; only the probe-side table shards", s.Table)
			}
		}
		return nil
	}

	// Join-free statements: the sharded table must be the FROM source itself —
	// either the base table or a LINEAGE BACKWARD trace into it.
	f := stmt.From
	switch {
	case f.Table == sharded:
		// Scan of the sharded slice — the canonical scatter shape.
	case f.Trace != nil:
		tr := f.Trace
		if !tr.Backward {
			return serr.New(serr.Unsupported, "shard: LINEAGE FORWARD over a sharded table needs the traced output whole; not supported")
		}
		if tr.Table != sharded {
			return serr.New(serr.Unsupported, "shard: LINEAGE BACKWARD OF %q under sharding must trace into the sharded table %q", tr.Table, sharded)
		}
		if tr.Sub == nil {
			return serr.New(serr.Internal, "shard: lineage source without a traced query")
		}
		if err := c.checkScatterable(tr.Sub, sharded, tables); err != nil {
			return err
		}
		// The engine's trace-rewrite test: a lineage source that does not
		// collapse to one filtered scan (the traced query joins) expands per
		// seed over each shard's LOCAL group order — a row order no merge can
		// map back to the single node's global expansion.
		if sub := c.lower(tr.Sub); sub != nil {
			if _, ok := plan.TraceScanEquiv(plan.Backward{Source: sub, Table: tr.Table, Rel: tables[sharded].rel}); !ok {
				return serr.New(serr.Unsupported,
					"shard: LINEAGE BACKWARD under sharding requires a single-table traced query (the scan-collapsible shape); traced joins expand in per-shard order")
			}
		}
		if tr.Seed != nil {
			if err := seedReadsKeysOnly(tr.Seed, tr.Sub); err != nil {
				return err
			}
		}
	case f.Sub != nil:
		return serr.New(serr.Unsupported, "shard: FROM-subquery reading a sharded table aggregates partial rows; not supported")
	default:
		return serr.New(serr.Unsupported, "shard: the sharded table %q must be the outermost FROM source", sharded)
	}
	return nil
}

// joinSources projects the source items of a join list.
func joinSources(joins []sql.Join) []sql.FromItem {
	out := make([]sql.FromItem, len(joins))
	for i, j := range joins {
		out[i] = j.Source
	}
	return out
}

// seedReadsKeysOnly fences a backward-trace seed predicate to the traced
// query's group-key columns. Key values are identical for a group on every
// shard that holds part of it, so a shard-side seed evaluation selects
// exactly the global groups; aggregate columns are partial shard-side and
// would select the wrong groups.
func seedReadsKeysOnly(seed expr.Expr, traced *sql.Stmt) error {
	keys := map[string]bool{}
	for _, k := range traced.GroupBy {
		keys[k.Col] = true
	}
	// Aggregate aliases shadow nothing — they are the non-key columns.
	aggAliases := map[string]bool{}
	for _, it := range traced.Items {
		if it.Agg != nil && it.Agg.Alias != "" {
			aggAliases[it.Agg.Alias] = true
		}
	}
	for _, col := range expr.Columns(seed) {
		if aggAliases[col] || !keys[col] {
			return serr.New(serr.Unsupported,
				"shard: backward-trace seed column %q is not a group key of the traced query; shard-local aggregate values are partial", col)
		}
	}
	return nil
}
