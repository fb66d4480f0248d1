package grid

import (
	"context"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/trace"
)

// partitionPlan builds a plan over synthetic sources without touching
// the benchmark suite.
func partitionPlan(t *testing.T, sizes, lines []uint64, policies []string) Plan {
	t.Helper()
	refs := make([]trace.Ref, 512)
	for i := range refs {
		refs[i] = trace.Ref{Addr: uint64(i * 7), Kind: trace.Instr}
	}
	mk := func(name string) Source {
		return NewSource(name, func() ([]trace.Ref, error) { return refs, nil })
	}
	plan, err := Spec{
		Sources:  []Source{mk("alpha"), mk("beta")},
		Kind:     "instr",
		Refs:     len(refs),
		Sizes:    sizes,
		Lines:    lines,
		Policies: policies,
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func allPending(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestPartitionColumns checks the shape of a full partition: one group
// per (source, line, eligible policy) triple spanning the whole size
// axis — opt's whole-stream column included — with ineligible policies
// (victim) left to the per-cell remainder.
func TestPartitionColumns(t *testing.T) {
	plan := partitionPlan(t,
		[]uint64{4096, 8192, 16384},
		[]uint64{4, 16},
		[]string{"dm", "opt", "lru:ways=4", "victim"})
	pending := allPending(len(plan.Cells))
	groups := plan.Partition(pending, nil)

	// 2 sources × 2 lines × 3 eligible policies (dm, opt, lru) = 12
	// columns.
	if len(groups) != 12 {
		t.Fatalf("got %d groups, want 12", len(groups))
	}
	covered := map[int]bool{}
	optGroups := 0
	for _, g := range groups {
		if len(g.Indices) != 3 {
			t.Errorf("group has %d members, want the 3 sizes", len(g.Indices))
		}
		if g.NewColumn == nil {
			t.Error("group without constructor")
		}
		var label0 string
		for k, pos := range g.Indices {
			if covered[pos] {
				t.Errorf("cell %d in two groups", pos)
			}
			covered[pos] = true
			label := plan.Cells[pos].Label
			if strings.HasSuffix(label, "/victim") {
				t.Errorf("victim cell %q grouped; victim has no column kernel", label)
			}
			if k == 0 && strings.HasSuffix(label, "/opt") {
				optGroups++
			}
			// Same (source, line, policy): labels differ only in the size
			// field, and sizes ascend with member order.
			parts := strings.Split(label, "/")
			key := parts[0] + "/" + parts[2] + "/" + parts[3]
			if k == 0 {
				label0 = key
			} else if key != label0 {
				t.Errorf("group mixes %q and %q", label0, key)
			}
		}
		if col, err := g.NewColumn(); err != nil || len(col.Outcomes()) != len(g.Indices) {
			t.Errorf("constructor: col=%v err=%v", col, err)
		}
	}
	if optGroups != 4 {
		t.Errorf("%d opt columns, want one per source and line (4)", optGroups)
	}
	// The remainder is exactly the victim cells: 2 sources × 3 sizes × 2
	// lines.
	if got, want := len(plan.Cells)-len(covered), 12; got != want {
		t.Errorf("%d cells left ungrouped, want %d", got, want)
	}
}

// TestPartitionPendingSubset maps group indices into the pending slice,
// not the plan: a resumed sweep with holes mid-column must still group
// the surviving members.
func TestPartitionPendingSubset(t *testing.T) {
	plan := partitionPlan(t, []uint64{4096, 8192, 16384}, []uint64{4}, []string{"dm"})
	// Drop one mid-column cell (alpha/8192) as if it were journaled.
	var pending []int
	for i := range plan.Cells {
		if plan.Cells[i].Label == "alpha/8192/4/dm" {
			continue
		}
		pending = append(pending, i)
	}
	groups := plan.Partition(pending, nil)
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2", len(groups))
	}
	for _, g := range groups {
		for _, pos := range g.Indices {
			if pos < 0 || pos >= len(pending) {
				t.Fatalf("group index %d outside pending (len %d)", pos, len(pending))
			}
		}
		first := plan.Cells[pending[g.Indices[0]]].Label
		if strings.HasPrefix(first, "alpha/") && len(g.Indices) != 2 {
			t.Errorf("alpha column has %d members, want 2 after the journaled hole", len(g.Indices))
		}
		if strings.HasPrefix(first, "beta/") && len(g.Indices) != 3 {
			t.Errorf("beta column has %d members, want 3", len(g.Indices))
		}
	}
}

// TestPartitionSkipAndDegenerate: skipped cells stay per-cell, and
// single-size plans have no columns at all.
func TestPartitionSkipAndDegenerate(t *testing.T) {
	plan := partitionPlan(t, []uint64{4096, 8192}, []uint64{4}, []string{"dm"})
	skip := func(pi int) bool { return strings.HasPrefix(plan.Cells[pi].Label, "alpha/") }
	groups := plan.Partition(allPending(len(plan.Cells)), skip)
	if len(groups) != 1 {
		t.Fatalf("got %d groups, want just beta's", len(groups))
	}
	if l := plan.Cells[groups[0].Indices[0]].Label; !strings.HasPrefix(l, "beta/") {
		t.Errorf("surviving group starts at %q, want a beta cell", l)
	}

	single := partitionPlan(t, []uint64{4096}, []uint64{4}, []string{"dm"})
	if g := single.Partition(allPending(len(single.Cells)), nil); len(g) != 0 {
		t.Errorf("single-size plan produced %d groups", len(g))
	}
}

// TestPartitionRunGroupedMatchesCSV is the package-level byte-identity
// check: the same plan swept cell-by-cell and with columns renders the
// same CSV.
func TestPartitionRunGroupedMatchesCSV(t *testing.T) {
	plan := partitionPlan(t,
		[]uint64{2048, 4096, 8192, 16384},
		[]uint64{4, 16},
		[]string{"dm", "de", "lru", "fifo:ways=4", "opt", "de:store=hashed*4"})
	perCell, err := engine.Run(context.Background(), plan.Cells, engine.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	groups := plan.Partition(allPending(len(plan.Cells)), nil)
	if len(groups) == 0 {
		t.Fatal("no groups on a geometry-heavy plan")
	}
	grouped, err := engine.RunGrouped(context.Background(), plan.Cells, groups, engine.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var a, b strings.Builder
	if _, err := plan.WriteCSV(&a, perCell); err != nil {
		t.Fatal(err)
	}
	if _, err := plan.WriteCSV(&b, grouped); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("column-partitioned CSV differs from cell-by-cell CSV")
	}
}

// TestPartitionCellList groups a plan assembled from a cell list — no
// Spec, not a full rectangle — by its coordinates alone: cells sharing
// (source, line, policy) form a column whatever their plan positions,
// an isolated cell stays out, and a lone coordinate stays per-cell.
// The columns' results match the cells run one by one.
func TestPartitionCellList(t *testing.T) {
	full := partitionPlan(t, []uint64{4096, 8192, 16384}, []uint64{4}, []string{"dm", "de"})
	var plan Plan
	add := func(label string, isolated bool) {
		for i, c := range full.Cells {
			if c.Label == label {
				plan.Cells = append(plan.Cells, c)
				plan.Coords = append(plan.Coords, full.Coords[i])
				plan.Isolated = append(plan.Isolated, isolated)
				return
			}
		}
		t.Fatalf("no cell %q", label)
	}
	add("alpha/16384/4/dm", false)
	add("beta/4096/4/dm", false)  // beta's only dm cell: no column
	add("alpha/4096/4/dm", false) // joins alpha/16384's column
	add("alpha/8192/4/de", false)
	add("alpha/4096/4/de", false)
	add("alpha/8192/4/dm", true) // isolated: stays out of alpha's dm column
	groups := plan.Partition(allPending(len(plan.Cells)), nil)
	var got []string
	for _, g := range groups {
		var labels []string
		for _, pos := range g.Indices {
			labels = append(labels, plan.Cells[pos].Label)
		}
		got = append(got, strings.Join(labels, "+"))
	}
	want := []string{"alpha/16384/4/dm+alpha/4096/4/dm", "alpha/8192/4/de+alpha/4096/4/de"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("groups %q, want %q", got, want)
	}
	perCell, err := engine.Run(context.Background(), plan.Cells, engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	grouped, err := engine.RunGrouped(context.Background(), plan.Cells, groups, engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range perCell {
		if perCell[i].Stats != grouped[i].Stats {
			t.Errorf("%s: column %+v, per-cell %+v", plan.Cells[i].Label, grouped[i].Stats, perCell[i].Stats)
		}
	}
	if g := (Plan{Cells: plan.Cells}).Partition(allPending(len(plan.Cells)), nil); len(g) != 0 {
		t.Errorf("a plan without coordinates formed %d groups", len(g))
	}
}
