package main

import (
	"strings"
	"testing"
	"time"

	"nexus"
	"nexus/internal/core"
	"nexus/internal/datagen"
)

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, tc := range []struct {
		n      int
		label  string
		value  float64
		beyond int
	}{
		{n: 50, label: "max", value: 50},
		{n: 99, label: "max", value: 99},
		{n: 100, label: "p90", value: 90, beyond: 10},
		{n: 999, label: "p90", value: 900, beyond: 99},
		{n: 1000, label: "p99", value: 990, beyond: 10},
		{n: 10000, label: "p99.9", value: 9990, beyond: 10},
	} {
		got := tailPercentile(seq(tc.n))
		if got.Label != tc.label || got.Value != tc.value || got.Beyond != tc.beyond {
			t.Errorf("n=%d: got %+v, want %s=%v with %d beyond", tc.n, got, tc.label, tc.value, tc.beyond)
		}
	}
	if got := tailPercentile(nil); got.Label != "none" {
		t.Errorf("empty: got %+v", got)
	}
}

func TestMedianIsMeasured(t *testing.T) {
	if got := median([]float64{5, 1, 3, 2}); got != 2 {
		t.Errorf("median = %v, want the nearest-rank value 2", got)
	}
	v := []float64{3, 1, 2}
	median(v)
	if v[0] != 3 {
		t.Error("median reordered its input")
	}
}

func TestReadFigures(t *testing.T) {
	b := &bench{seq: []op{{class: classPoint}, {class: classAgg}}}
	// Two passes over two reads; the second issue of read 1 failed.
	b.issues = []issue{{0, 10}, {1, -1}, {0, 6}, {1, 30}}
	b.refMS = []float64{4, 6, 2, 2, 4}
	figs := b.readFigures()
	// Each issue is divided by the mean of the reference runs before
	// and after it: 10/5, 6/2 for read 0 and 30/3 for read 1.
	if f := figs[0]; f.fastest != 6 || len(f.xref) != 2 || f.xref[0] != 2 || f.xref[1] != 3 {
		t.Errorf("read 0: %+v, want fastest 6 and xref [2 3]", f)
	}
	if f := figs[1]; f.fastest != 30 || len(f.xref) != 1 || f.xref[0] != 10 {
		t.Errorf("read 1: %+v, want fastest 30 and xref [10]", f)
	}
}

// spans builds a tree from (name, parent, start, end) in milliseconds.
func spans(rows ...[4]any) []span {
	out := make([]span, len(rows))
	for i, r := range rows {
		out[i] = span{name: r[0].(string), parent: r[1].(int),
			start: time.Duration(r[2].(int)) * time.Millisecond, end: time.Duration(r[3].(int)) * time.Millisecond}
	}
	return out
}

func TestSelfTimes(t *testing.T) {
	got := selfTimes(spans(
		[4]any{"op", -1, 0, 100},
		[4]any{"plan", 0, 10, 20},
		[4]any{"execute", 0, 20, 70},
		[4]any{"read", 2, 25, 45},
		[4]any{"read", 2, 40, 50}, // overlaps its sibling: covered once
		[4]any{"late", 2, 65, 90}, // runs past its parent: clipped
	))
	want := []time.Duration{40, 10, 50 - 25 - 5, 20, 10, 25}
	for i := range want {
		if got[i] != want[i]*time.Millisecond {
			t.Errorf("span %d self = %v, want %v", i, got[i], want[i]*time.Millisecond)
		}
	}
}

func TestOpSelfTimes(t *testing.T) {
	sales, err := core.NewScan("sales", datagen.SalesSchema())
	if err != nil {
		t.Fatal(err)
	}
	filter, err := core.NewFilter(sales, nexus.Gt(nexus.Col("qty"), nexus.Int(3)))
	if err != nil {
		t.Fatal(err)
	}
	project, err := core.NewProject(filter, []string{"sale_id"})
	if err != nil {
		t.Fatal(err)
	}
	incl := map[core.Node]time.Duration{project: 100, sales: 30}
	got := opSelfTimes(project, func(n core.Node) (time.Duration, bool) {
		d, ok := incl[n]
		return d, ok
	})
	// The filter ran inside a kernel: its absent stats pass the scan's
	// time straight up to the project.
	if got["project"] != 70 || got["scan"] != 30 || got["filter"] != 0 {
		t.Errorf("self times %v, want project 70, scan 30, no filter", got)
	}
}

// salesTable builds a client table with the sales columns.
func salesTable(t *testing.T, rows [][]any) *nexus.Table {
	t.Helper()
	tb := nexus.NewTableBuilder(
		nexus.ColumnDef{Name: "sale_id", Type: nexus.Int64},
		nexus.ColumnDef{Name: "cust_id", Type: nexus.Int64},
		nexus.ColumnDef{Name: "prod_id", Type: nexus.Int64},
		nexus.ColumnDef{Name: "qty", Type: nexus.Int64},
		nexus.ColumnDef{Name: "price", Type: nexus.Float64},
		nexus.ColumnDef{Name: "region", Type: nexus.String},
	)
	for _, r := range rows {
		tb.Append(r...)
	}
	out, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRangeDigestMatchesResult(t *testing.T) {
	ordered := datagen.Sales(3, 2000, 50, 20)
	want := rangeDigest(ordered, 100, 110, salesCols)
	var rows [][]any
	for i := 100; i < 110; i++ {
		rows = append(rows, []any{
			ordered.Col(0).Ints()[i], ordered.Col(1).Ints()[i], ordered.Col(2).Ints()[i],
			ordered.Col(3).Ints()[i], ordered.Col(4).Floats()[i], ordered.Col(5).Strs()[i]})
	}
	// Row order does not matter; a changed cell does.
	rows[0], rows[9] = rows[9], rows[0]
	got, err := resultDigest(salesTable(t, rows), salesCols)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("digest %+v, want %+v", got, want)
	}
	rows[3][4] = rows[3][4].(float64) + 0.01
	if got, _ := resultDigest(salesTable(t, rows), salesCols); got == want {
		t.Fatal("digest missed a changed price")
	}
	if d := rangeDigest(ordered, 1990, 2100, pointCols); d.Rows != 10 || d.Sums[colSlot("qty")] != 0 {
		t.Fatalf("clipped point digest %+v: want 10 rows and no qty sum", d)
	}
}

// aggResult renders expected groups as the agg query's result table.
func aggResult(t *testing.T, groups map[int64]groupTotal) *nexus.Table {
	t.Helper()
	tb := nexus.NewTableBuilder(
		nexus.ColumnDef{Name: "prod_id", Type: nexus.Int64},
		nexus.ColumnDef{Name: "sum_price", Type: nexus.Float64},
		nexus.ColumnDef{Name: "n", Type: nexus.Int64},
	)
	for p, g := range groups {
		tb.Append(p, float64(g.Cents)/100, g.N)
	}
	out, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAggOracleFollowsAppendedPrefix(t *testing.T) {
	const seed = 5
	ordered := datagen.Sales(seed, 3000, 50, salesProd)
	expect := func(region int, batches int) map[int64]groupTotal {
		g := map[int64]groupTotal{}
		add := func(r string, prod int64, price float64) {
			if int(regionCode[r]) == region {
				x := g[prod]
				x.N++
				x.Cents += cents(price)
				g[prod] = x
			}
		}
		for i := 0; i < ordered.NumRows(); i++ {
			add(ordered.Col(5).Strs()[i], ordered.Col(2).Ints()[i], ordered.Col(4).Floats()[i])
		}
		for b := 0; b < batches; b++ {
			sb := genSalesBatch(seed, b)
			for j := range sb.ids {
				add(sb.region[j], sb.prod[j], sb.price[j])
			}
		}
		return g
	}
	a := newAggOracle(seed, ordered)
	if err := a.check(2, aggResult(t, expect(2, 0)), 0, 0); err != nil {
		t.Fatalf("base result: %v", err)
	}
	// A read that saw three of five sent batches, two acknowledged.
	if err := a.check(2, aggResult(t, expect(2, 3)), 2, 5); err != nil {
		t.Fatalf("prefix of 3: %v", err)
	}
	// Later reads never see fewer batches.
	if err := a.check(2, aggResult(t, expect(2, 2)), 2, 5); err == nil {
		t.Fatal("accepted a result that lost an appended batch")
	}
	// Another region is tracked on its own.
	if err := a.check(4, aggResult(t, expect(4, 1)), 0, 1); err != nil {
		t.Fatalf("region 4: %v", err)
	}
	bad := expect(1, 0)
	for p, g := range bad {
		g.Cents++
		bad[p] = g
		break
	}
	if err := a.check(1, aggResult(t, bad), 0, 0); err == nil || !strings.Contains(err.Error(), "prod") {
		t.Fatalf("wrong sum accepted or misreported: %v", err)
	}
}

func TestCheckWindows(t *testing.T) {
	const seed = 9
	windows := func(batches int) *nexus.Table {
		end := int64(eventsRows + batches*batchRows)
		tb := nexus.NewTableBuilder(
			nexus.ColumnDef{Name: "window_start", Type: nexus.Int64},
			nexus.ColumnDef{Name: "n", Type: nexus.Int64},
			nexus.ColumnDef{Name: "sv", Type: nexus.Int64},
		)
		ev := genEvents(seed, 0, end)
		for ws := int64(0); ws < end; ws += eventWindow {
			var n, sv int64
			for ts := ws; ts < min(ws+eventWindow, end); ts++ {
				n++
				sv += ev.Col(2).Ints()[ts]
			}
			tb.Append(ws, n, sv)
		}
		out, err := tb.Build()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if err := checkWindows(seed, windows(0), 0, 0); err != nil {
		t.Fatalf("base: %v", err)
	}
	if err := checkWindows(seed, windows(7), 5, 9); err != nil {
		t.Fatalf("7 batches: %v", err)
	}
	if err := checkWindows(seed, windows(3), 5, 9); err == nil {
		t.Fatal("accepted a replay missing acknowledged batches")
	}
	if err := checkWindows(seed+1, windows(0), 0, 0); err == nil {
		t.Fatal("accepted window sums of another seed")
	}
}

func TestSalesBatchesAreReproducible(t *testing.T) {
	a, b := genSalesBatch(1, 4), genSalesBatch(1, 4)
	if a.ids[0] != salesRows+4*batchRows || a.prod[17] != b.prod[17] || a.region[200] != b.region[200] {
		t.Fatal("batch 4 differs between generations or starts at the wrong sale_id")
	}
	tab := salesBatchInternal(a)
	if tab.NumRows() != batchRows || !tab.Schema().Equal(datagen.SalesSchema()) {
		t.Fatalf("batch table %v rows, schema %v", tab.NumRows(), tab.Schema())
	}
}
