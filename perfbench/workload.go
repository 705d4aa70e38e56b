package main

import (
	"fmt"
	"math/rand"

	"smoke/internal/datagen"
	"smoke/internal/dates"
	"smoke/internal/serverclient"
	"smoke/internal/storage"
	"smoke/internal/tpch"
)

// stepKind is what one scripted request does.
type stepKind int

const (
	stepQuery stepKind = iota // run SQL with eager capture, retain it under view
	stepTrace                 // bound trace of the retained view
)

// step is one request of a session script.
type step struct {
	kind  stepKind
	view  string
	query serverclient.QueryRequest
	trace serverclient.TraceRequest
	// class names the answer: every request of one class must return the
	// same rows, the ones in-process execution gives for it.
	class string
	// repeat marks a request identical to an earlier one of its session, the
	// only requests the plan-fingerprint cache can answer.
	repeat bool
}

// script is the deterministic request sequence of one client session.
type script []step

// Brushing data: interact(d1, d2, v). d1 is the brushed bar column, zipf
// skewed over brushBars values, d2 the second view's column, v a measure.
const (
	brushBars     = 256
	brushD2       = 50
	brushForwards = 8 // distinct forward seed sets
	brushSteps    = 24
	brushTable    = "interact"
)

// brushData generates n rows of interact from seed.
func brushData(n int, seed int64) *storage.Relation {
	z := datagen.Zipf("zipf", 1.0, n, brushBars, seed)
	rel := storage.NewRelation(brushTable, storage.Schema{
		{Name: "d1", Type: storage.TInt},
		{Name: "d2", Type: storage.TInt},
		{Name: "v", Type: storage.TFloat},
	}, n)
	copy(rel.Cols[0].Ints, z.Cols[1].Ints)
	copy(rel.Cols[2].Floats, z.Cols[2].Floats)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for i := range rel.Cols[1].Ints {
		rel.Cols[1].Ints[i] = int64(rng.Intn(brushD2))
	}
	return rel
}

// brushViews names the first k brushing views: view1, view2, ...
func brushViews(k int) []string {
	views := make([]string, k)
	for i := range views {
		views[i] = fmt.Sprintf("view%d", i+1)
	}
	return views
}

// brushView returns the base query of one brushing view: odd views chart
// d1, even views d2. The WHERE literal is unique per session (uid) and
// passes every row, so each session's capture is a fresh execution with the
// same answer.
func brushView(view string, uid int) (sql, other string) {
	var n int
	fmt.Sscanf(view, "view%d", &n)
	if n%2 == 0 {
		return fmt.Sprintf("SELECT d2, COUNT(*) AS cnt, SUM(v) AS sv FROM interact WHERE d1 < %d GROUP BY d2", 1_000_000+uid), "d1"
	}
	return fmt.Sprintf("SELECT d1, COUNT(*) AS cnt, SUM(v) AS sv FROM interact WHERE d2 < %d GROUP BY d1", 1_000_000+uid), "d2"
}

// brushForward is a forward trace of seed set f of view: four base rids of
// an n-row table.
func brushForward(seed int64, view string, f, n int) step {
	rng := rand.New(rand.NewSource(seed*31 + int64(f)))
	rids := make([]int64, 4)
	for j := range rids {
		rids[j] = int64(rng.Intn(n))
	}
	return step{kind: stepTrace, view: view, class: fmt.Sprintf("%s/f%d", view, f),
		trace: serverclient.TraceRequest{Direction: "forward", Table: brushTable, Rids: rids}}
}

// brushScript is session i of the brush, spill and shard workloads: one
// group-by with eager capture per view, then brushSteps interactions per
// view. Each interaction is a bound backward trace of one bar re-aggregated
// into the other view; every fourth is a forward trace of a seed set
// instead, and another quarter (steps 2, 6, 10, ...) re-brush an earlier
// bar. New
// bars and forward sets are dealt from seeded permutations (stratified), so
// every run of a few hundred sessions brushes each bar about equally often
// and the latency mix does not hinge on which bars a seed happens to favour.
func brushScript(seed int64, i, n int, views []string) script {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
	var s script
	for _, view := range views {
		sql, _ := brushView(view, i)
		s = append(s, step{kind: stepQuery, view: view, query: serverclient.QueryRequest{SQL: sql}, class: view})
	}
	const fresh = brushSteps / 2 // new bars per view and session
	for v, view := range views {
		_, other := brushView(view, i)
		nbars := brushBars
		if other == "d1" {
			nbars = brushD2
		}
		var brushed []int
		next, fwd := (i*len(views)+v)*fresh, (i*len(views)+v)*brushSteps/4
		for k := 0; k < brushSteps; k++ {
			switch {
			case k%4 == 3:
				s = append(s, brushForward(seed, view, fwd%brushForwards, n))
				fwd++
			case k%4 == 2:
				bar := brushed[rng.Intn(len(brushed))]
				st := brushTrace(view, other, bar)
				st.repeat = true
				s = append(s, st)
			default:
				bar := dealt(seed, view, nbars, next)
				next++
				for contains(brushed, bar) {
					bar = (bar + 1) % nbars
				}
				brushed = append(brushed, bar)
				s = append(s, brushTrace(view, other, bar))
			}
		}
	}
	return s
}

// dealt is entry j of an endless sequence of seeded permutations of
// [0, n): entries j/n*n .. j/n*n+n-1 hold every value once.
func dealt(seed int64, salt string, n, j int) int {
	h := seed*7_919 + int64(j/n)
	for _, c := range salt {
		h = h*31 + int64(c)
	}
	return rand.New(rand.NewSource(h)).Perm(n)[j%n]
}

func brushTrace(view, other string, bar int) step {
	return step{kind: stepTrace, view: view, class: fmt.Sprintf("%s/b%d", view, bar),
		trace: serverclient.TraceRequest{
			Direction: "backward", Table: brushTable, Rids: []int64{int64(bar)},
			GroupBy: []string{other},
			Aggs:    []serverclient.Agg{{Fn: "count", Name: "n"}, {Fn: "sum", Arg: "v", Name: "sv"}},
		}}
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// Report workload: four TPC-H shapes, each with reportVariants literal sets
// that change the answer, a per-request literal that does not (so no two
// requests share a plan fingerprint), and a backward trace of one of the
// first reportTraceRids output groups re-aggregated by line status.
const (
	reportVariants  = 3
	reportTraceRids = 2
)

var reportShapes = []string{"Q1", "Q3", "Q10", "Q12"}

// reportTables loads the generated TPC-H relations with their primary keys.
func reportTables(tp *tpch.DB) []struct {
	rel *storage.Relation
	pk  string
} {
	return []struct {
		rel *storage.Relation
		pk  string
	}{
		{tp.Nation, "n_nationkey"}, {tp.Customer, "c_custkey"},
		{tp.Orders, "o_orderkey"}, {tp.Lineitem, ""},
	}
}

// reportSQL is shape at literal variant v; uid feeds the answer-neutral
// literal (every l_linenumber is below 8).
func reportSQL(shape string, v, uid int) string {
	noop := 1_000_000 + uid
	switch shape {
	case "Q1":
		return fmt.Sprintf(`SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty,
 SUM(l_extendedprice) AS sum_base_price, SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
 SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge, AVG(l_quantity) AS avg_qty,
 AVG(l_extendedprice) AS avg_price, AVG(l_discount) AS avg_disc, COUNT(*) AS count_order
 FROM lineitem WHERE l_shipdate <= %d AND l_linenumber < %d GROUP BY l_returnflag, l_linestatus`,
			dates.FromCivil(1998, 12, 1)-int64(60+30*v), noop)
	case "Q3":
		cut := dates.FromCivil(1995, 3, 15) + int64(10*v)
		return fmt.Sprintf(`SELECT o_orderkey, o_orderdate, o_shippriority, SUM(l_extendedprice * (1 - l_discount)) AS revenue
 FROM customer JOIN orders ON c_custkey = o_custkey JOIN lineitem ON o_orderkey = l_orderkey
 WHERE c_mktsegment = '%s' AND o_orderdate < %d AND l_shipdate > %d AND l_linenumber < %d
 GROUP BY o_orderkey, o_orderdate, o_shippriority`, tpch.Segments[v%len(tpch.Segments)], cut, cut, noop)
	case "Q10":
		lo := dates.FromCivil(1993, 10, 1) + int64(92*v)
		return fmt.Sprintf(`SELECT n_name, COUNT(*) AS customers, SUM(rev) AS revenue
 FROM (SELECT c_custkey, c_nationkey, SUM(l_extendedprice * (1 - l_discount)) AS rev
   FROM customer JOIN orders ON c_custkey = o_custkey JOIN lineitem ON o_orderkey = l_orderkey
   WHERE o_orderdate >= %d AND o_orderdate < %d AND l_returnflag = 'R' AND l_linenumber < %d
   GROUP BY c_custkey, c_nationkey) AS rc
 JOIN nation ON c_nationkey = n_nationkey GROUP BY n_name`, lo, lo+92, noop)
	default: // Q12
		lo := dates.FromCivil(1994, 1, 1) + int64(365*v)
		m := []string{"MAIL", "SHIP", "AIR", "RAIL"}
		return fmt.Sprintf(`SELECT l_shipmode, COUNT(*) AS line_count, SUM(o_totalprice) AS total
 FROM orders JOIN lineitem ON o_orderkey = l_orderkey
 WHERE l_shipmode IN ('%s', '%s') AND l_commitdate < l_receiptdate AND l_shipdate < l_commitdate
   AND l_receiptdate >= %d AND l_receiptdate < %d AND l_linenumber < %d
 GROUP BY l_shipmode`, m[v%4], m[(v+1)%4], lo, lo+365, noop)
	}
}

// reportScript is session i of the report workload: one query with eager
// capture and one backward trace of an output group into lineitem. The
// (shape, literal variant, traced group) classes are dealt from seeded
// permutations, so each run holds them in equal shares.
func reportScript(seed int64, i int) script {
	classes := len(reportShapes) * reportVariants * reportTraceRids
	c := dealt(seed, "report", classes, i)
	shape := reportShapes[c%len(reportShapes)]
	v := c / len(reportShapes) % reportVariants
	rid := c / (len(reportShapes) * reportVariants)
	class := fmt.Sprintf("%s/v%d", shape, v)
	return script{
		{kind: stepQuery, view: "r", class: class, query: serverclient.QueryRequest{SQL: reportSQL(shape, v, i)}},
		reportTrace(class, rid),
	}
}

// reportTrace is the backward trace of output group rid of a report query,
// re-aggregated by line status.
func reportTrace(class string, rid int) step {
	return step{kind: stepTrace, view: "r", class: fmt.Sprintf("%s/t%d", class, rid), trace: serverclient.TraceRequest{
		Direction: "backward", Table: "lineitem", Rids: []int64{int64(rid)},
		GroupBy: []string{"l_linestatus"},
		Aggs:    []serverclient.Agg{{Fn: "count", Name: "n"}, {Fn: "sum", Arg: "l_quantity", Name: "qty"}},
	}}
}
