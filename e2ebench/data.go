package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"nexus"
	"nexus/internal/datagen"
	"nexus/internal/schema"
	"nexus/internal/storage"
	"nexus/internal/table"
	"nexus/internal/value"
)

// Dataset sizes. The sales table is loaded in shuffled order and then
// compacted clustered by sale_id into about four segments, so range
// predicates on sale_id prune by zone map and every other predicate
// scans all of it.
const (
	salesRows    = 1_000_000
	salesCust    = 10_000
	salesProd    = 1_000
	loadChunk    = 62_500  // rows per in-process append while loading
	loadFlush    = 2 << 20 // WAL size that seals a segment while loading
	segmentBytes = 8 << 20 // compaction target: four sales segments ...
	segmentRows  = 250_000 // ... of this many rows, in sale_id order

	eventsRows  = 20_000 // the events dataset subscriptions replay
	eventWindow = 1_000  // tumbling window size, in ts units
	eventKeys   = 7

	batchRows = 256 // rows per client append

	pointWidth  = 1_000   // sale_id range of a point query
	exportWidth = 100_000 // sale_id range of an export
)

// salesCols are the sales columns in schema order; the oracle's digest
// slots follow the same order.
var salesCols = []string{"sale_id", "cust_id", "prod_id", "qty", "price", "region"}

// pointCols are the columns a point query selects.
var pointCols = []string{"sale_id", "prod_id", "price"}

// regionCode gives each region a small integer for column checksums.
var regionCode = func() map[string]int64 {
	m := map[string]int64{}
	for i, r := range datagen.Regions {
		m[r] = int64(i + 1)
	}
	return m
}()

// cents turns a price (two decimals by construction) into an exact
// integer, so sums compare exactly whatever order they were added in.
func cents(p float64) int64 { return int64(math.Round(p * 100)) }

// genSales generates the base sales table from the seed: datagen's rows
// (row i has sale_id i) and, separately, the same rows shuffled for
// loading, so the table reaches storage unclustered.
func genSales(seed int64) (ordered, shuffled *table.Table) {
	ordered = datagen.Sales(seed, salesRows, salesCust, salesProd)
	perm := rand.New(rand.NewSource(seed ^ 0x5eed)).Perm(salesRows)
	return ordered, ordered.Gather(perm)
}

// eventsSchema is (ts, k, v): ts is the event time and row number, k a
// small key and v an integer payload derived from ts.
func eventsSchema() schema.Schema {
	return schema.New(
		schema.Attribute{Name: "ts", Kind: value.KindInt64},
		schema.Attribute{Name: "k", Kind: value.KindInt64},
		schema.Attribute{Name: "v", Kind: value.KindInt64},
	)
}

// eventV is the payload of the event at ts; the oracle recomputes
// window sums from it instead of keeping the rows.
func eventV(seed, ts int64) int64 {
	x := uint64(ts)*0x9e3779b97f4a7c15 ^ uint64(seed)
	x ^= x >> 29
	return int64(x % 100)
}

// genEvents builds events with ts in [lo, hi).
func genEvents(seed, lo, hi int64) *table.Table {
	n := int(hi - lo)
	ts, k, v := make([]int64, n), make([]int64, n), make([]int64, n)
	for i := range ts {
		t := lo + int64(i)
		ts[i], k[i], v[i] = t, t%eventKeys, eventV(seed, t)
	}
	return table.MustNew(eventsSchema(), []*table.Column{table.IntColumn(ts), table.IntColumn(k), table.IntColumn(v)})
}

// salesBatch is the b-th 256-row batch a writer appends to sales: fresh
// sale_ids above the base table, other columns drawn from a generator
// seeded by (seed, b), so any batch can be rebuilt by the oracle.
type salesBatch struct {
	ids, cust, prod, qty []int64
	price                []float64
	region               []string
}

func genSalesBatch(seed int64, b int) salesBatch {
	rng := rand.New(rand.NewSource(seed*7919 + int64(b) + 1))
	var sb salesBatch
	for j := 0; j < batchRows; j++ {
		sb.ids = append(sb.ids, int64(salesRows+b*batchRows+j))
		sb.cust = append(sb.cust, int64(rng.Intn(salesCust)))
		sb.prod = append(sb.prod, int64(rng.Intn(salesProd)))
		sb.qty = append(sb.qty, int64(1+rng.Intn(9)))
		sb.price = append(sb.price, math.Round(rng.Float64()*9900+100)/100.0)
		sb.region = append(sb.region, datagen.Regions[rng.Intn(len(datagen.Regions))])
	}
	return sb
}

// userBytes is the raw size of the batch's values: 8 bytes per number
// plus the string bytes.
func (sb salesBatch) userBytes() int64 {
	n := int64(len(sb.ids)) * 8 * 5
	for _, r := range sb.region {
		n += int64(len(r))
	}
	return n
}

// salesBatchTable renders a batch as a client table.
func salesBatchTable(sb salesBatch) (*nexus.Table, error) {
	tb := nexus.NewTableBuilder(
		nexus.ColumnDef{Name: "sale_id", Type: nexus.Int64},
		nexus.ColumnDef{Name: "cust_id", Type: nexus.Int64},
		nexus.ColumnDef{Name: "prod_id", Type: nexus.Int64},
		nexus.ColumnDef{Name: "qty", Type: nexus.Int64},
		nexus.ColumnDef{Name: "price", Type: nexus.Float64},
		nexus.ColumnDef{Name: "region", Type: nexus.String},
	)
	for j := range sb.ids {
		tb.Append(sb.ids[j], sb.cust[j], sb.prod[j], sb.qty[j], sb.price[j], sb.region[j])
	}
	return tb.Build()
}

// salesBatchInternal is the same batch as a storage table, for the
// in-process append the traced run times.
func salesBatchInternal(sb salesBatch) *table.Table {
	return table.MustNew(datagen.SalesSchema(), []*table.Column{
		table.IntColumn(sb.ids), table.IntColumn(sb.cust), table.IntColumn(sb.prod),
		table.IntColumn(sb.qty), table.FloatColumn(sb.price), table.StringColumn(sb.region),
	})
}

// eventsBatchTable is the b-th events batch a writer appends: ts
// continues after the base events.
func eventsBatchTable(seed int64, b int) (*nexus.Table, error) {
	tb := nexus.NewTableBuilder(
		nexus.ColumnDef{Name: "ts", Type: nexus.Int64},
		nexus.ColumnDef{Name: "k", Type: nexus.Int64},
		nexus.ColumnDef{Name: "v", Type: nexus.Int64},
	)
	lo := int64(eventsRows + b*batchRows)
	for t := lo; t < lo+batchRows; t++ {
		tb.Append(t, t%eventKeys, eventV(seed, t))
	}
	return tb.Build()
}

// loaded is one set-up data directory and the engine open on it.
type loaded struct {
	dir   string
	eng   *storage.Engine
	bytes int64 // data-dir size when the timed phase starts (ingest_mix)
}

// setup generates the datasets, loads them into a fresh engine at dir,
// flushes and compacts. The returned table is the generated sales table
// in sale_id order, for the oracle; the caller drops it before timing.
func setup(dir string, seed int64) (*loaded, *table.Table, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, nil, err
	}
	ordered, shuffled := genSales(seed)
	eng, err := storage.OpenEngine("bench", dir)
	if err != nil {
		return nil, nil, err
	}
	eng.Backing().FlushBytes = loadFlush
	fail := func(err error) (*loaded, *table.Table, error) {
		eng.Close()
		return nil, nil, err
	}
	for lo := 0; lo < salesRows; lo += loadChunk {
		if err := eng.Append("sales", shuffled.Slice(lo, min(lo+loadChunk, salesRows))); err != nil {
			return fail(fmt.Errorf("load sales: %w", err))
		}
	}
	if err := eng.Append("events", genEvents(seed, 0, eventsRows)); err != nil {
		return fail(fmt.Errorf("load events: %w", err))
	}
	if err := eng.Flush(); err != nil {
		return fail(fmt.Errorf("flush: %w", err))
	}
	if _, err := eng.Compact(compactOptions(segmentBytes)); err != nil {
		return fail(fmt.Errorf("compact: %w", err))
	}
	return &loaded{dir: dir, eng: eng}, ordered, nil
}

// compactOptions clusters sales by sale_id and events by ts. Set-up
// compacts with target segmentBytes: every loaded segment is smaller,
// so the whole table is rewritten in sale_id order as four segments.
// The background compactor in ingest_mix keeps the engine's default
// target, below the base segments' size, so it leaves them alone and
// merges the small segments appends leave behind by size tier.
func compactOptions(target int64) storage.CompactOptions {
	return storage.CompactOptions{
		TargetBytes: target,
		ClusterBy:   map[string]string{"sales": "sale_id", "events": "ts"},
	}
}

// timedSetups sets up n times, each in a fresh directory under base,
// and keeps the last one. It returns the median set-up time in seconds
// and each run's time.
func timedSetups(base string, seed int64, n int) (*loaded, *table.Table, float64, []float64, error) {
	var times []float64
	var keep *loaded
	var ordered *table.Table
	for i := 0; i < n; i++ {
		if keep != nil {
			keep.eng.Close()
			os.RemoveAll(keep.dir)
			keep, ordered = nil, nil
		}
		runtime.GC() // every set-up starts from a collected heap
		start := time.Now()
		l, o, err := setup(filepath.Join(base, fmt.Sprintf("setup%d", i)), seed)
		if err != nil {
			return nil, nil, 0, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		keep, ordered = l, o
	}
	return keep, ordered, median(times), times, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			fi, err := d.Info()
			if err != nil {
				return err
			}
			n += fi.Size()
		}
		return nil
	})
	return n, err
}
