package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"nexus"
	"nexus/internal/datagen"
	"nexus/internal/storage"
)

// opDeadline bounds every client operation. An operation that runs
// past it is cancelled, counted as failed and never retried.
const opDeadline = 10 * time.Second

// Operation classes.
const (
	classPoint     = "point"
	classAgg       = "agg"
	classExport    = "export"
	classAppend    = "append"
	classSubscribe = "subscribe"
)

// readClasses are the query classes every workload runs.
var readClasses = []string{classPoint, classAgg, classExport}

// op is one planned client operation.
type op struct {
	class  string
	lo     int64  // first sale_id (point, export)
	region int    // region code (agg)
	want   digest // expected result digest (point, export)
}

// readOps plans the reader's fixed operation sequence: count[c] reads
// of each class in an order and with parameters drawn from the seed.
func readOps(seed int64, count map[string]int) []op {
	rng := rand.New(rand.NewSource(seed))
	var ops []op
	for _, c := range readClasses {
		for i := 0; i < count[c]; i++ {
			o := op{class: c}
			switch c {
			case classPoint:
				o.lo = rng.Int63n(salesRows - pointWidth + 1)
			case classExport:
				// Each export lies inside one compacted segment, so every
				// export reads the same amount; ranges that straddle two
				// segments would make a bimodal mix whose share varies
				// from seed to seed.
				seg := rng.Int63n(salesRows / segmentRows)
				o.lo = seg*segmentRows + rng.Int63n(segmentRows-exportWidth+1)
			case classAgg:
				o.region = 1 + rng.Intn(len(datagen.Regions))
			}
			ops = append(ops, o)
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// client is one application attached to the server through the public
// client API.
type client struct {
	addr string
	sess *nexus.Session
	prov string
}

// dial attaches a session to the server over TCP. This is the transport
// ConnectTCP uses; the only option set is the per-request deadline.
func dial(addr string) (*client, error) {
	c := &client{addr: addr}
	return c, c.connect()
}

func (c *client) connect() error {
	c.sess = nexus.NewSession()
	prov, err := c.sess.Connect(c.addr, nexus.ConnectOptions{RequestTimeout: opDeadline})
	if err != nil {
		return fmt.Errorf("connect: %w", err)
	}
	c.prov = prov
	return nil
}

// reset replaces the connection after a failed operation: a timed-out
// request poisons it. The failed operation itself is not repeated.
func (c *client) reset() error {
	c.sess.Close()
	return c.connect()
}

func (c *client) close() { c.sess.Close() }

// query builds the client query for a read.
func (c *client) query(o op) *nexus.Query {
	switch o.class {
	case classPoint:
		return c.sess.Scan("sales").Where(saleRange(o.lo, pointWidth)).Select(pointCols...)
	case classExport:
		return c.sess.Scan("sales").Where(saleRange(o.lo, exportWidth))
	default:
		return c.sess.Scan("sales").
			Where(nexus.Eq(nexus.Col("region"), nexus.Str(datagen.Regions[o.region-1]))).
			GroupBy("prod_id").
			Agg(nexus.Sum("sum_price", nexus.Col("price")), nexus.Count("n"))
	}
}

func saleRange(lo, width int64) nexus.Expr {
	return nexus.And(
		nexus.Ge(nexus.Col("sale_id"), nexus.Int(lo)),
		nexus.Lt(nexus.Col("sale_id"), nexus.Int(lo+width)))
}

// read runs one read through the client, timed from building the
// query to holding the result.
func (c *client) read(o op) (*nexus.Table, time.Duration, error) {
	start := time.Now()
	t, err := c.query(o).Collect()
	return t, time.Since(start), err
}

// checkRead compares a read's result with the oracle.
func checkRead(o op, t *nexus.Table, agg *aggOracle, lo, hi int) error {
	switch o.class {
	case classAgg:
		return agg.check(o.region, t, lo, hi)
	case classPoint, classExport:
		cols := salesCols
		if o.class == classPoint {
			cols = pointCols
		}
		got, err := resultDigest(t, cols)
		if err != nil {
			return err
		}
		if got != o.want {
			return fmt.Errorf("%s [%d,+): digest %+v, want %+v", o.class, o.lo, got, o.want)
		}
	}
	return nil
}

// subscribe runs a tumbling-window replay of the events dataset to
// completion and checks the window totals. It returns the time to the
// first window and to completion; wrong marks an error from the check
// rather than from the subscription. lo and hi bound how many appended
// events batches the replay may include.
//
// The subscription runs under a context with the operation deadline. A
// subscription that still has not returned a second after its context
// ended is counted as failed and left behind — a lost wakeup in the
// client's stream path must show as a failure, not wedge the run; the
// goroutine ends with the process.
func (c *client) subscribe(seed int64, lo, hi func() int) (first, total time.Duration, wrong bool, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	var mu sync.Mutex
	var parts []*nexus.Table
	minBatches := lo()
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, err := c.sess.StreamScan("events", "ts").
			Window(nexus.Tumbling(eventWindow)).
			Agg(nexus.Count("n"), nexus.Sum("sv", nexus.Col("v"))).
			SubscribeRemote(ctx, []string{c.prov}, func(t *nexus.Table) error {
				mu.Lock()
				defer mu.Unlock()
				if len(parts) == 0 {
					first = time.Since(start)
				}
				parts = append(parts, t)
				return nil
			})
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(opDeadline + time.Second):
		err = fmt.Errorf("subscription still running %v after its deadline", time.Second)
	}
	total = time.Since(start)
	mu.Lock()
	defer mu.Unlock()
	if err != nil {
		return first, total, false, err
	}
	all, err := concatWindows(parts)
	if err == nil {
		err = checkWindows(seed, all, minBatches, hi())
	}
	return first, total, err != nil, err
}

// concatWindows joins the window tables a subscription delivered.
func concatWindows(parts []*nexus.Table) (*nexus.Table, error) {
	tb := nexus.NewTableBuilder(
		nexus.ColumnDef{Name: "window_start", Type: nexus.Int64},
		nexus.ColumnDef{Name: "n", Type: nexus.Int64},
		nexus.ColumnDef{Name: "sv", Type: nexus.Int64},
	)
	for _, p := range parts {
		ws, err := p.Ints("window_start")
		if err != nil {
			return nil, err
		}
		ns, err := p.Ints("n")
		if err != nil {
			return nil, err
		}
		svs, err := p.Ints("sv")
		if err != nil {
			return nil, err
		}
		for i := range ws {
			tb.Append(ws[i], ns[i], svs[i])
		}
	}
	return tb.Build()
}

// engineCounters are the storage engine's cumulative scan counters;
// deltas around one query say which path served it (exact only with a
// single client).
type engineCounters struct {
	encodedScans, encodedAggs, scanned, skipped, bytesRead int64
}

func readCounters(eng *storage.Engine) engineCounters {
	return engineCounters{
		encodedScans: eng.EncodedScans(),
		encodedAggs:  eng.EncodedAggs(),
		scanned:      eng.SegmentsScanned(),
		skipped:      eng.SegmentsSkipped(),
		bytesRead:    eng.BytesRead(),
	}
}

// opCounters are the process-wide figures read around one operation.
type opCounters struct {
	eng   engineCounters
	cache cacheCounts
	alloc uint64
}

func snapshotOp(eng *storage.Engine) opCounters {
	return opCounters{eng: readCounters(eng), cache: cacheLookups(), alloc: allocBytes()}
}

func (a opCounters) sub(b opCounters) opCounters {
	return opCounters{
		eng:   a.eng.sub(b.eng),
		cache: cacheCounts{hit: a.cache.hit - b.cache.hit, miss: a.cache.miss - b.cache.miss},
		alloc: a.alloc - b.alloc,
	}
}

func (a engineCounters) sub(b engineCounters) engineCounters {
	return engineCounters{
		encodedScans: a.encodedScans - b.encodedScans,
		encodedAggs:  a.encodedAggs - b.encodedAggs,
		scanned:      a.scanned - b.scanned,
		skipped:      a.skipped - b.skipped,
		bytesRead:    a.bytesRead - b.bytesRead,
	}
}

// path classifies a query by the counters it moved: the encoded
// aggregate, the encoded pre-filtered scan, a decoded segment scan, or
// none of them — served from the engine's warm materialized table.
func (d engineCounters) path() string {
	switch {
	case d.encodedAggs > 0:
		return "encoded-agg"
	case d.encodedScans > 0:
		return "encoded-scan"
	case d.scanned > 0:
		return "segment-scan"
	default:
		return "warm-table"
	}
}
