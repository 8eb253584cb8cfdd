package main

import (
	"fmt"

	"nexus"
	"nexus/internal/datagen"
	"nexus/internal/table"
)

// The oracle checks every result against figures derived from the seed,
// kept small: one digest per planned range query, one count and cents
// sum per (region, product) group, and a formula for event windows. The
// generated sales table itself is dropped before timing starts.

// digest is a checksum of a set of sales rows: the row count and one
// exact integer sum per column, in salesCols order (price in cents,
// region as regionCode). Columns a query did not select stay zero.
type digest struct {
	Rows int64
	Sums [6]int64
}

// rangeDigest digests the rows with sale_id in [lo, hi) of the ordered
// sales table (row i has sale_id i), keeping only the given columns.
func rangeDigest(ordered *table.Table, lo, hi int64, cols []string) digest {
	hi = min(hi, int64(ordered.NumRows()))
	var d digest
	if lo >= hi {
		return d
	}
	d.Rows = hi - lo
	for _, name := range cols {
		slot := colSlot(name)
		col := ordered.ColByName(name)
		for i := int(lo); i < int(hi); i++ {
			d.Sums[slot] += cellValue(name, col, i)
		}
	}
	return d
}

// cellValue is one cell as its digest contribution.
func cellValue(name string, col *table.Column, i int) int64 {
	switch name {
	case "price":
		return cents(col.Floats()[i])
	case "region":
		return regionCode[col.Strs()[i]]
	default:
		return col.Ints()[i]
	}
}

func colSlot(name string) int {
	for i, c := range salesCols {
		if c == name {
			return i
		}
	}
	panic("e2ebench: unknown sales column " + name)
}

// resultDigest digests a client result over the given columns.
func resultDigest(t *nexus.Table, cols []string) (digest, error) {
	d := digest{Rows: int64(t.NumRows())}
	for _, name := range cols {
		slot := colSlot(name)
		switch name {
		case "price":
			v, err := t.Floats(name)
			if err != nil {
				return d, err
			}
			for _, x := range v {
				d.Sums[slot] += cents(x)
			}
		case "region":
			v, err := t.Strings(name)
			if err != nil {
				return d, err
			}
			for _, x := range v {
				d.Sums[slot] += regionCode[x]
			}
		default:
			v, err := t.Ints(name)
			if err != nil {
				return d, err
			}
			for _, x := range v {
				d.Sums[slot] += x
			}
		}
	}
	return d, nil
}

// groupTotal is one agg group's expected row count and price sum.
type groupTotal struct{ N, Cents int64 }

// aggOracle tracks the expected `region = r GROUP BY prod_id` result
// per region: the base table's groups plus the appended batches a
// reader has been shown to see so far. Appends are a single writer's
// acknowledged prefix, so what a read sees is base plus the first k
// batches, with k between the batches acknowledged before the read
// began and those sent before it ended; k never falls between one read
// and the next.
type aggOracle struct {
	seed   int64
	groups [][]groupTotal // per region code-1, indexed by prod_id
	total  []int64        // rows per region
	k      []int          // appended batches folded in, per region
}

func newAggOracle(seed int64, ordered *table.Table) *aggOracle {
	a := &aggOracle{seed: seed, total: make([]int64, len(datagen.Regions)), k: make([]int, len(datagen.Regions))}
	for range datagen.Regions {
		a.groups = append(a.groups, make([]groupTotal, salesProd))
	}
	prod := ordered.ColByName("prod_id").Ints()
	price := ordered.ColByName("price").Floats()
	region := ordered.ColByName("region").Strs()
	for i := range prod {
		a.add(int(regionCode[region[i]]-1), prod[i], price[i])
	}
	return a
}

func (a *aggOracle) add(r int, prod int64, price float64) {
	g := &a.groups[r][prod]
	g.N++
	g.Cents += cents(price)
	a.total[r]++
}

// fold adds appended batch k[r] to region r.
func (a *aggOracle) fold(r int) {
	sb := genSalesBatch(a.seed, a.k[r])
	for j := range sb.ids {
		if int(regionCode[sb.region[j]]-1) == r {
			a.add(r, sb.prod[j], sb.price[j])
		}
	}
	a.k[r]++
}

// check verifies an agg result for region code r (1-based) that may
// include any prefix of appended batches between lo and hi.
func (a *aggOracle) check(r int, t *nexus.Table, lo, hi int) error {
	r--
	prods, err := t.Ints("prod_id")
	if err != nil {
		return err
	}
	sums, err := t.Floats("sum_price")
	if err != nil {
		return err
	}
	ns, err := t.Ints("n")
	if err != nil {
		return err
	}
	var got int64
	for _, n := range ns {
		got += n
	}
	for a.k[r] < lo {
		a.fold(r)
	}
	for a.total[r] < got && a.k[r] < hi {
		a.fold(r)
	}
	if got != a.total[r] {
		return fmt.Errorf("agg region %d: %d rows counted, want %d (%d appended batches seen)", r+1, got, a.total[r], a.k[r])
	}
	nonEmpty := 0
	for _, g := range a.groups[r] {
		if g.N > 0 {
			nonEmpty++
		}
	}
	if len(prods) != nonEmpty {
		return fmt.Errorf("agg region %d: %d groups, want %d", r+1, len(prods), nonEmpty)
	}
	for i, p := range prods {
		if p < 0 || p >= salesProd {
			return fmt.Errorf("agg region %d: unexpected prod_id %d", r+1, p)
		}
		want := a.groups[r][p]
		if ns[i] != want.N || cents(sums[i]) != want.Cents {
			return fmt.Errorf("agg region %d prod %d: n=%d sum=%.2f, want n=%d sum=%.2f", r+1, p, ns[i], sums[i], want.N, float64(want.Cents)/100)
		}
	}
	return nil
}

// checkWindows verifies a subscription's tumbling-window totals: the
// replay covered the base events plus k appended batches for some k in
// [lo, hi], and every window's count and payload sum match the events
// with ts in that window.
func checkWindows(seed int64, t *nexus.Table, lo, hi int) error {
	starts, err := t.Ints("window_start")
	if err != nil {
		return err
	}
	ns, err := t.Ints("n")
	if err != nil {
		return err
	}
	svs, err := t.Ints("sv")
	if err != nil {
		return err
	}
	var got int64
	for _, n := range ns {
		got += n
	}
	extra := got - eventsRows
	k := int(extra / batchRows)
	if extra < 0 || extra%batchRows != 0 || k < lo || k > hi {
		return fmt.Errorf("subscribe: %d events in windows, want %d plus 0..%d batches of %d (at least %d)", got, eventsRows, hi, batchRows, lo)
	}
	end := int64(eventsRows + k*batchRows)
	if want := int((end + eventWindow - 1) / eventWindow); len(starts) != want {
		return fmt.Errorf("subscribe: %d windows, want %d", len(starts), want)
	}
	for i, ws := range starts {
		var n, sv int64
		for ts := max(ws, 0); ts < min(ws+eventWindow, end); ts++ {
			n++
			sv += eventV(seed, ts)
		}
		if ns[i] != n || svs[i] != sv {
			return fmt.Errorf("subscribe window %d: n=%d sv=%d, want n=%d sv=%d", ws, ns[i], svs[i], n, sv)
		}
	}
	return nil
}
