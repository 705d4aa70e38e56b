package difftest

import (
	"fmt"
	"math/rand"

	"smoke/internal/core"
	"smoke/internal/dates"
	"smoke/internal/exec"
	"smoke/internal/ops"
	"smoke/internal/plan"
	"smoke/internal/pool"
	"smoke/internal/sql"
	"smoke/internal/storage"
	"smoke/internal/tpch"
)

// Snowflake differential checking: TPC-H join chains whose upper build keys
// are unique only through a pk-fk join below them (in customer ⋈ orders ⋈
// lineitem, o_orderkey stays unique because orders is the probe side of the
// pk-fk join on c_custkey). The optimizer fuses such chains into one
// multi-input SPJA block. Every plan variant must match the
// generic/serial/inject/raw reference element for element, and the fused
// plan must contain the multi-input block, so a regression of the
// uniqueness rule fails here instead of silently falling back to the
// generic runner.

// snowflakeQuery is one checked query and the input count of the widest SPJA
// block its fused plan must contain.
type snowflakeQuery struct {
	name   string
	sql    string
	inputs int
}

// snowflakeQueries draws the literals of Q3, Q10 and two plain chains from r.
func snowflakeQueries(r *rand.Rand) []snowflakeQuery {
	cut := dates.FromCivil(1995, 3, 1) + int64(r.Intn(30))
	lo := dates.FromCivil(1993, 1, 1) + int64(r.Intn(720))
	seg := tpch.Segments[r.Intn(len(tpch.Segments))]
	return []snowflakeQuery{
		{"Q3", fmt.Sprintf(`SELECT o_orderkey, o_orderdate, o_shippriority, SUM(l_extendedprice * (1 - l_discount)) AS revenue
		 FROM customer JOIN orders ON c_custkey = o_custkey JOIN lineitem ON o_orderkey = l_orderkey
		 WHERE c_mktsegment = '%s' AND o_orderdate < %d AND l_shipdate > %d
		 GROUP BY o_orderkey, o_orderdate, o_shippriority`, seg, cut, cut), 3},
		// The inner block fuses; the outer join's build side is the block's
		// two-key output, so it stays generic.
		{"Q10", fmt.Sprintf(`SELECT n_name, COUNT(*) AS customers, SUM(rev) AS revenue
		 FROM (SELECT c_custkey, c_nationkey, SUM(l_extendedprice * (1 - l_discount)) AS rev
		   FROM customer JOIN orders ON c_custkey = o_custkey JOIN lineitem ON o_orderkey = l_orderkey
		   WHERE o_orderdate >= %d AND o_orderdate < %d AND l_returnflag = 'R'
		   GROUP BY c_custkey, c_nationkey) AS rc
		 JOIN nation ON c_nationkey = n_nationkey GROUP BY n_name`, lo, lo+92), 3},
		// Grouped on the chain's first input: every output group gathers
		// rows through both joins.
		{"chain3", fmt.Sprintf(`SELECT c_mktsegment, COUNT(*) AS n, SUM(l_quantity) AS qty
		 FROM customer JOIN orders ON c_custkey = o_custkey JOIN lineitem ON o_orderkey = l_orderkey
		 WHERE o_orderdate < %d GROUP BY c_mktsegment`, cut), 3},
		{"chain4", fmt.Sprintf(`SELECT n_name, COUNT(*) AS n, SUM(l_extendedprice) AS price
		 FROM nation JOIN customer ON n_nationkey = c_nationkey JOIN orders ON c_custkey = o_custkey
		 JOIN lineitem ON o_orderkey = l_orderkey
		 WHERE o_orderdate >= %d GROUP BY n_name`, lo), 4},
	}
}

// CheckSnowflake runs the snowflake queries over seeded TPC-H data with
// declared primary keys through every plan variant.
func CheckSnowflake(seed int64) error {
	r := rand.New(rand.NewSource(seed))
	tp := tpch.Generate(0.001, seed)
	db := core.Open()
	defer db.Close()
	for _, rel := range []*storage.Relation{tp.Nation, tp.Customer, tp.Orders, tp.Lineitem} {
		db.Register(rel)
	}
	db.Catalog().SetPrimaryKey("nation", "n_nationkey")
	db.Catalog().SetPrimaryKey("customer", "c_custkey")
	db.Catalog().SetPrimaryKey("orders", "o_orderkey")
	pl := pool.New(3)
	defer pl.Close()

	for _, q := range snowflakeQueries(r) {
		what := fmt.Sprintf("seed %d snowflake %s", seed, q.name)
		st, err := sql.Parse(q.sql)
		if err != nil {
			return fmt.Errorf("difftest: %s: %w", what, err)
		}
		n, err := sql.Lower(db, st)
		if err != nil {
			return fmt.Errorf("difftest: %s: %w", what, err)
		}
		fused, _ := plan.Optimize(n, plan.Opts{Catalog: db.Catalog()})
		if got := widestSPJA(fused); got != q.inputs {
			return fmt.Errorf("difftest: %s: widest fused SPJA has %d inputs, want %d:\n%s",
				what, got, q.inputs, plan.Format(fused))
		}
		if err := checkPlanVariants(db, n, pl, what); err != nil {
			return err
		}
		// The rule also changes the reference: its generic lowering now runs
		// pk-fk joins where it ran M:N joins. Both must agree.
		generic, _ := plan.Optimize(n, plan.Opts{Catalog: db.Catalog(), NoFusion: true})
		ref, err := exec.RunPlan(generic, exec.PlanOpts{Mode: ops.Inject, Workers: 1})
		if err != nil {
			return fmt.Errorf("difftest: %s: reference run: %w", what, err)
		}
		mn, err := exec.RunPlan(withoutPKFK(generic), exec.PlanOpts{Mode: ops.Inject, Workers: 1})
		if err != nil {
			return fmt.Errorf("difftest: %s: M:N run: %w", what, err)
		}
		if err := diffPlanResults(ref, mn); err != nil {
			return fmt.Errorf("difftest: %s: M:N joins vs pk-fk joins: %w", what, err)
		}
	}
	return nil
}

// withoutPKFK clears every join's pk-fk mark, so the generic lowering runs
// the M:N join everywhere.
func withoutPKFK(n plan.Node) plan.Node {
	switch node := n.(type) {
	case plan.Join:
		node.PKFK = false
		node.Left, node.Right = withoutPKFK(node.Left), withoutPKFK(node.Right)
		return node
	case plan.GroupBy:
		node.Child = withoutPKFK(node.Child)
		return node
	case plan.Filter:
		node.Child = withoutPKFK(node.Child)
		return node
	case plan.Project:
		node.Child = withoutPKFK(node.Child)
		return node
	}
	return n
}

// widestSPJA returns the input count of the widest SPJA block in n (0: none).
func widestSPJA(n plan.Node) int {
	var kids []plan.Node
	w := 0
	switch node := n.(type) {
	case plan.SPJA:
		w = len(node.Inputs)
		kids = node.Inputs
	case plan.Filter:
		kids = []plan.Node{node.Child}
	case plan.Project:
		kids = []plan.Node{node.Child}
	case plan.GroupBy:
		kids = []plan.Node{node.Child}
	case plan.OrderBy:
		kids = []plan.Node{node.Child}
	case plan.Limit:
		kids = []plan.Node{node.Child}
	case plan.Join:
		kids = []plan.Node{node.Left, node.Right}
	case plan.Union:
		kids = []plan.Node{node.Left, node.Right}
	}
	for _, k := range kids {
		w = max(w, widestSPJA(k))
	}
	return w
}
