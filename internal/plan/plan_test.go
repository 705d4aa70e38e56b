package plan

import (
	"strings"
	"testing"

	"smoke/internal/expr"
	"smoke/internal/ops"
	"smoke/internal/storage"
)

func dimFact() (*storage.Relation, *storage.Relation) {
	dim := storage.NewEmpty("dim", storage.Schema{
		{Name: "g", Type: storage.TInt},
		{Name: "label", Type: storage.TString},
	})
	for i := 0; i < 4; i++ {
		dim.AppendRow(i, "L")
	}
	fact := storage.NewEmpty("fact", storage.Schema{
		{Name: "k", Type: storage.TInt},
		{Name: "v", Type: storage.TFloat},
	})
	for i := 0; i < 10; i++ {
		fact.AppendRow(i%4, float64(i))
	}
	return dim, fact
}

func joinQuery(dim, fact *storage.Relation, aggs []AggDef) Node {
	return GroupBy{
		Child: Filter{
			Child: Join{
				Left:     Scan{Table: "dim", Rel: dim},
				Right:    Scan{Table: "fact", Rel: fact},
				LeftKey:  "g",
				RightKey: "k",
			},
			Pred: expr.And{
				L: expr.LtE(expr.C("v"), expr.F(5)),
				R: expr.EqE(expr.C("label"), expr.S("L")),
			},
		},
		Keys: []string{"label"},
		Aggs: aggs,
	}
}

func TestPushdownSplitsConjunctsIntoScans(t *testing.T) {
	dim, fact := dimFact()
	n := pushdownNode(joinQuery(dim, fact, []AggDef{{Fn: ops.Count, Name: "c"}}))
	s := Format(n)
	if strings.Contains(s, "Filter") {
		t.Fatalf("residual filter left behind:\n%s", s)
	}
	if !strings.Contains(s, "Scan dim filter=(label = 'L')") ||
		!strings.Contains(s, "Scan fact filter=(v < 5)") {
		t.Fatalf("conjuncts not pushed into scans:\n%s", s)
	}
}

func TestPushdownThroughGroupByKeys(t *testing.T) {
	_, fact := dimFact()
	n := Filter{
		Child: GroupBy{
			Child: Scan{Table: "fact", Rel: fact},
			Keys:  []string{"k"},
			Aggs:  []AggDef{{Fn: ops.Count, Name: "c"}},
		},
		Pred: expr.And{
			L: expr.LeE(expr.C("k"), expr.I(2)), // key predicate: sinks below the agg
			R: expr.GeE(expr.C("c"), expr.I(1)), // aggregate predicate: must stay
		},
	}
	s := Format(pushdownNode(n))
	if !strings.Contains(s, "Scan fact filter=(k <= 2)") {
		t.Fatalf("key predicate not pushed below group-by:\n%s", s)
	}
	if !strings.Contains(s, "Filter (c >= 1)") {
		t.Fatalf("aggregate predicate must stay above the group-by:\n%s", s)
	}
}

func TestPKFKDetection(t *testing.T) {
	dim, fact := dimFact()
	j := Join{Left: Scan{Table: "dim", Rel: dim}, Right: Scan{Table: "fact", Rel: fact},
		LeftKey: "g", RightKey: "k"}
	// dim.g is unique → detected by the uniqueness scan with no catalog.
	if got := detectPKFK(j, Opts{}).(Join); !got.PKFK {
		t.Fatal("unique left key not detected")
	}
	// fact.k has duplicates → not pk-fk when fact builds.
	rev := Join{Left: Scan{Table: "fact", Rel: fact}, Right: Scan{Table: "dim", Rel: dim},
		LeftKey: "k", RightKey: "g"}
	if got := detectPKFK(rev, Opts{}).(Join); got.PKFK {
		t.Fatal("duplicate left key wrongly detected as pk")
	}
	// A single-key aggregation output is unique by construction.
	sub := GroupBy{Child: Scan{Table: "fact", Rel: fact}, Keys: []string{"k"},
		Aggs: []AggDef{{Fn: ops.Count, Name: "c"}}}
	j2 := Join{Left: sub, Right: Scan{Table: "dim", Rel: dim}, LeftKey: "k", RightKey: "g"}
	if got := detectPKFK(j2, Opts{}).(Join); !got.PKFK {
		t.Fatal("group-by key output not detected as unique")
	}
	// Declared primary keys short-circuit the scan.
	cat := storage.NewCatalog()
	cat.Register(dim)
	cat.SetPrimaryKey("dim", "g")
	if got := detectPKFK(j, Opts{Catalog: cat}).(Join); !got.PKFK {
		t.Fatal("declared pk not detected")
	}
}

func TestFusionRewritesBlock(t *testing.T) {
	dim, fact := dimFact()
	n, traces := Optimize(joinQuery(dim, fact, []AggDef{
		{Fn: ops.Count, Name: "c"},
		{Fn: ops.Sum, Arg: expr.C("v"), Name: "s"},
	}), Opts{})
	spja, ok := n.(SPJA)
	if !ok {
		t.Fatalf("block not fused:\n%s", Format(n))
	}
	if len(spja.Inputs) != 2 || len(spja.Joins) != 1 {
		t.Fatalf("fused shape wrong:\n%s", Format(n))
	}
	if spja.Filters[0] == nil || spja.Filters[1] == nil {
		t.Fatal("pushed-down scan filters not pipelined into the block")
	}
	if spja.Keys[0].Input != 0 || spja.Aggs[1].Input != 1 {
		t.Fatalf("key/agg input resolution wrong: %+v", spja)
	}
	var names []string
	for _, tr := range traces {
		names = append(names, tr.Rule)
	}
	joined := strings.Join(names, ",")
	if !strings.Contains(joined, "predicate-pushdown") || !strings.Contains(joined, "fuse-spja") {
		t.Fatalf("trace missing rules: %v", names)
	}
}

func TestFusionPreconditions(t *testing.T) {
	dim, fact := dimFact()
	// COUNT(DISTINCT) blocks fusion.
	n, _ := Optimize(joinQuery(dim, fact, []AggDef{{Fn: ops.CountDistinct, Arg: expr.C("v"), Name: "d"}}), Opts{})
	if _, fused := n.(SPJA); fused {
		t.Fatal("CountDistinct block must not fuse")
	}
	// Non-pk-fk joins block fusion (fact.k builds, has duplicates).
	mn := GroupBy{
		Child: Join{Left: Scan{Table: "fact", Rel: fact}, Right: Scan{Table: "dim", Rel: dim},
			LeftKey: "k", RightKey: "g"},
		Keys: []string{"label"},
		Aggs: []AggDef{{Fn: ops.Count, Name: "c"}},
	}
	n, _ = Optimize(mn, Opts{})
	if _, fused := n.(SPJA); fused {
		t.Fatal("M:N join block must not fuse")
	}
	// NoFusion disables the rule entirely.
	n, _ = Optimize(joinQuery(dim, fact, []AggDef{{Fn: ops.Count, Name: "c"}}), Opts{NoFusion: true})
	if _, fused := n.(SPJA); fused {
		t.Fatal("NoFusion must disable the fusion rule")
	}
}

func TestFusionOverSubplanInput(t *testing.T) {
	dim, fact := dimFact()
	inner := GroupBy{
		Child: Scan{Table: "fact", Rel: fact},
		Keys:  []string{"k"},
		Aggs:  []AggDef{{Fn: ops.Count, Name: "cnt"}},
	}
	outer := GroupBy{
		Child: Join{Left: inner, Right: Scan{Table: "dim", Rel: dim}, LeftKey: "k", RightKey: "g"},
		Keys:  []string{"label"},
		Aggs:  []AggDef{{Fn: ops.Sum, Arg: expr.C("cnt"), Name: "total"}},
	}
	n, _ := Optimize(outer, Opts{})
	spja, ok := n.(SPJA)
	if !ok {
		t.Fatalf("outer block over aggregation input not fused:\n%s", Format(n))
	}
	if _, isGB := spja.Inputs[0].(GroupBy); !isGB {
		t.Fatalf("inner aggregation should stay a subplan input:\n%s", Format(n))
	}
}

func TestProjectionPruning(t *testing.T) {
	dim, fact := dimFact()
	// Generic (M:N) join under a group-by: the join should materialize only
	// the columns the aggregation reads plus its keys.
	n := GroupBy{
		Child: Join{Left: Scan{Table: "fact", Rel: fact}, Right: Scan{Table: "dim", Rel: dim},
			LeftKey: "k", RightKey: "g"},
		Keys: []string{"label"},
		Aggs: []AggDef{{Fn: ops.Count, Name: "c"}},
	}
	out, _ := Optimize(n, Opts{})
	gb, ok := out.(GroupBy)
	if !ok {
		t.Fatalf("expected generic group-by:\n%s", Format(out))
	}
	j := gb.Child.(Join)
	if j.Cols == nil {
		t.Fatal("join columns not pruned")
	}
	if !containsStr(j.Cols, "label") {
		t.Fatalf("pruned columns must keep the group key: %v", j.Cols)
	}
	if containsStr(j.Cols, "v") {
		t.Fatalf("unused column kept: %v", j.Cols)
	}
	// Identity projections vanish.
	p := Project{Child: Scan{Table: "dim", Rel: dim}, Cols: []string{"g", "label"}}
	if _, isScan := pruneNode(p, nil).(Scan); !isScan {
		t.Fatal("identity projection not removed")
	}
}

func TestOutSchemaShapes(t *testing.T) {
	dim, fact := dimFact()
	gb := GroupBy{Child: Scan{Table: "fact", Rel: fact}, Keys: []string{"k"},
		Aggs: []AggDef{{Fn: ops.Count}, {Fn: ops.Sum, Arg: expr.C("v"), Name: "s"}}}
	s, err := OutSchema(gb)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 3 || s[0].Name != "k" || s[1].Name != "count_0" || s[2].Name != "s" {
		t.Fatalf("group-by schema = %v", s)
	}
	if s[1].Type != storage.TInt || s[2].Type != storage.TFloat {
		t.Fatalf("aggregate types wrong: %v", s)
	}
	// Join schema fails on column collisions.
	dup := storage.NewEmpty("dup", storage.Schema{{Name: "k", Type: storage.TInt}})
	if _, err := OutSchema(Join{Left: Scan{Table: "fact", Rel: fact}, Right: Scan{Table: "dup", Rel: dup},
		LeftKey: "k", RightKey: "k"}); err == nil {
		t.Fatal("colliding join schema must error")
	}
	if SingleBase(gb) != fact {
		t.Fatal("SingleBase wrong")
	}
	if SingleBase(Join{Left: Scan{Rel: fact}, Right: Scan{Rel: dim}}) != nil {
		t.Fatal("SingleBase over two bases must be nil")
	}
}

// snowflake builds a customer → orders → lineitem chain plus a 1:1 profile
// table keyed on customer: every *key column is unique in its own relation,
// the foreign keys (o_custkey, l_orderkey) repeat, and the tag columns are
// unique on both sides of a customer-profile join under one shared name.
func snowflake() (cust, prof, ord, line *storage.Relation) {
	cust = storage.NewEmpty("customer", storage.Schema{
		{Name: "c_custkey", Type: storage.TInt},
		{Name: "tag", Type: storage.TInt},
	})
	prof = storage.NewEmpty("profile", storage.Schema{
		{Name: "p_custkey", Type: storage.TInt},
		{Name: "tag", Type: storage.TInt},
	})
	for c := 0; c < 3; c++ {
		cust.AppendRow(c, 10+c)
		prof.AppendRow(c, 20+c)
	}
	ord = storage.NewEmpty("orders", storage.Schema{
		{Name: "o_orderkey", Type: storage.TInt},
		{Name: "o_custkey", Type: storage.TInt},
	})
	for o := 0; o < 6; o++ {
		ord.AppendRow(100+o, o%3)
	}
	line = storage.NewEmpty("lineitem", storage.Schema{
		{Name: "l_orderkey", Type: storage.TInt},
		{Name: "l_qty", Type: storage.TFloat},
	})
	for l := 0; l < 12; l++ {
		line.AppendRow(100+l%6, float64(l))
	}
	return cust, prof, ord, line
}

func TestKeyUniqueThroughPKFKJoins(t *testing.T) {
	cust, prof, ord, line := snowflake()
	scan := func(r *storage.Relation) Scan { return Scan{Table: r.Name, Rel: r} }
	custOrd := Join{Left: scan(cust), Right: scan(ord), LeftKey: "c_custkey", RightKey: "o_custkey"}

	// Q3's chain: o_orderkey comes from the probe side of a pk-fk join, so
	// it stays unique and the outer join is pk-fk too; the block fuses into
	// one 3-input SPJA.
	q3 := Join{Left: custOrd, Right: scan(line), LeftKey: "o_orderkey", RightKey: "l_orderkey"}
	got := detectPKFK(q3, Opts{}).(Join)
	if !got.PKFK || !got.Left.(Join).PKFK {
		t.Fatalf("Q3 chain not marked pk-fk at both joins:\n%s", Format(got))
	}
	fused, _ := Optimize(GroupBy{Child: q3, Keys: []string{"o_orderkey"},
		Aggs: []AggDef{{Fn: ops.Sum, Arg: expr.C("l_qty"), Name: "q"}}}, Opts{})
	if s, ok := fused.(SPJA); !ok || len(s.Inputs) != 3 {
		t.Fatalf("Q3 chain did not fuse into a 3-input SPJA:\n%s", Format(fused))
	}

	// A 1:1 join keeps build-side keys unique as well.
	custProf := Join{Left: scan(cust), Right: scan(prof), LeftKey: "c_custkey", RightKey: "p_custkey"}
	if !keyUnique(custProf, "c_custkey", nil) || !keyUnique(custProf, "p_custkey", nil) {
		t.Fatal("1:1 join lost a key's uniqueness")
	}
	if got := detectPKFK(Join{Left: custProf, Right: scan(ord), LeftKey: "c_custkey", RightKey: "o_custkey"},
		Opts{}).(Join); !got.PKFK {
		t.Fatal("join on a build-side key of a 1:1 join not marked pk-fk")
	}

	// An M:N join repeats probe rows: o_orderkey is unique in orders but not
	// in lineitem ⋈ orders.
	mn := Join{Left: scan(line), Right: scan(ord), LeftKey: "l_orderkey", RightKey: "o_orderkey"}
	if keyUnique(mn, "o_orderkey", nil) {
		t.Fatal("probe key of an M:N join reported unique")
	}
	// The build side of a 1:N pk-fk join repeats once per matching probe row.
	if keyUnique(custOrd, "c_custkey", nil) {
		t.Fatal("build-side key of a 1:N join reported unique")
	}
	if got := detectPKFK(Join{Left: custOrd, Right: scan(prof), LeftKey: "c_custkey", RightKey: "p_custkey"},
		Opts{}).(Join); got.PKFK {
		t.Fatal("join on a repeated build-side key marked pk-fk")
	}
	// A column the join does not materialize is not a key of its output.
	pruned := custOrd
	pruned.Cols = []string{"o_custkey"}
	if keyUnique(pruned, "o_orderkey", nil) {
		t.Fatal("column pruned by Cols reported unique")
	}
	// tag is unique on both sides of the 1:1 join, but the name is ambiguous
	// in its output.
	if keyUnique(custProf, "tag", nil) {
		t.Fatal("ambiguous column reported unique")
	}
}
