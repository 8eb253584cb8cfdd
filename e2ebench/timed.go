package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"nexus"
	"nexus/internal/server"
	"nexus/internal/storage"
)

// write is the ingest writer: appends a batch of 256 rows per turn,
// most to sales and every eventsEvery-th to events, until turns is
// closed and drained, and asks for a compaction cycle after every
// compactEvery appends. It stops at the first failed append: the
// oracle assumes the rows a reader sees are a prefix of the batches
// sent. With tr set, every append is followed by its in-process replay.
func (b *bench) write(c *client, turns <-chan struct{}, compactions chan<- struct{}, tr *tracer) error {
	w := b.cfg.w
	i := -1
	for range turns {
		i++
		toEvents := w.eventsEvery > 0 && i%w.eventsEvery == w.eventsEvery-1
		var t *nexus.Table
		var err error
		var sb salesBatch
		if toEvents {
			t, err = eventsBatchTable(b.cfg.seed, int(b.eventsSent.Load()))
		} else {
			sb = genSalesBatch(b.cfg.seed, int(b.salesSent.Load()))
			t, err = salesBatchTable(sb)
		}
		if err != nil {
			return err
		}
		dataset, sent, acked := "sales", &b.salesSent, &b.salesAcked
		if toEvents {
			dataset, sent, acked = "events", &b.eventsSent, &b.eventsAcked
		}
		sent.Add(1)
		t0 := time.Now()
		err = c.sess.Append(c.prov, dataset, t)
		el := time.Since(t0)
		b.record(classAppend, el, err, false)
		if err != nil {
			return nil
		}
		acked.Add(1)
		if (i+1)%compactEvery == 0 {
			compactions <- struct{}{}
		}
		if toEvents {
			b.userBytes.Add(batchRows * 8 * 3)
		} else {
			b.userBytes.Add(sb.userBytes())
			if tr != nil {
				if err := tr.replayAppend(sb, el); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// checkDurability stops the server, closes the engine, reopens the
// data directory with a fresh engine and server, and checks through
// the client that every acknowledged append is there: each dataset
// holds its base rows plus between the acknowledged and the sent
// batches, and its largest key matches its row count.
func (b *bench) checkDurability() error {
	b.srv.Close()
	b.srv = nil
	if err := b.data.eng.Close(); err != nil {
		return fmt.Errorf("close engine: %w", err)
	}
	b.data.eng = nil
	eng, err := storage.OpenEngine("bench", b.data.dir)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	b.data.eng = eng
	srv, err := server.Serve(eng, "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv.Logf = func(string, ...any) {}
	b.srv = srv
	c, err := dial(srv.Addr())
	if err != nil {
		return err
	}
	defer c.close()
	for _, ds := range []struct {
		name, key   string
		base        int64
		acked, sent int64
	}{
		{"sales", "sale_id", salesRows, b.salesAcked.Load(), b.salesSent.Load()},
		{"events", "ts", eventsRows, b.eventsAcked.Load(), b.eventsSent.Load()},
	} {
		t, err := c.sess.Scan(ds.name).Agg(nexus.Count("n"), nexus.Max("top", nexus.Col(ds.key))).Collect()
		if err != nil {
			return fmt.Errorf("%s: %w", ds.name, err)
		}
		n, err := t.Ints("n")
		if err != nil {
			return err
		}
		top, err := t.Ints("top")
		if err != nil {
			return err
		}
		lo, hi := ds.base+ds.acked*batchRows, ds.base+ds.sent*batchRows
		if n[0] < lo || n[0] > hi || top[0] != n[0]-1 {
			return fmt.Errorf("%s after reopen: %d rows, max %s %d; want %d..%d rows and max = rows-1", ds.name, n[0], ds.key, top[0], lo, hi)
		}
		b.logf("durability %s: %d rows after reopen (%d acknowledged batches), max %s %d: ok", ds.name, n[0], ds.acked, ds.key, top[0])
	}
	return nil
}

// writeAmplification is the data directory's growth during the run per
// byte of user data appended, measured with the engine closed.
func (b *bench) writeAmplification() (float64, error) {
	size, err := dirBytes(b.data.dir)
	if err != nil {
		return 0, err
	}
	return finite(float64(size-b.data.bytes) / float64(b.userBytes.Load())), nil
}

// classSummary is one class's latency figures.
type classSummary struct {
	n    int
	p50  float64
	tail tailStat
}

func summarize(samples []float64) classSummary {
	s := sortedCopy(samples)
	return classSummary{n: len(s), p50: percentile(s, 0.5), tail: tailPercentile(s)}
}

// report prints the human-readable lines and builds the result.
func (b *bench) report(wall time.Duration, gc gcStats, correct bool) *result {
	b.mu.Lock()
	defer b.mu.Unlock()
	m := map[string]metric{"setup_s": {b.setupS, "s"}}
	b.logf("setup_s: %.4f s (median of %d set-ups: %s)", b.setupS, len(b.setupTimes), fmtList(b.setupTimes))
	figs := b.readFigures()
	completed := 0
	classes := append(append([]string{}, readClasses...), classAppend, classSubscribe)
	for _, c := range classes {
		lat := b.lat[c]
		completed += len(lat)
		if len(lat) == 0 {
			continue
		}
		s := summarize(lat)
		b.logf("%s: n=%d p50=%.3f ms %s=%.3f ms (%d samples beyond) paths=%s",
			c, s.n, s.p50, s.tail.Label, s.tail.Value, s.tail.Beyond, fmtPaths(b.paths[c]))
		if !isReadClass(c) {
			continue
		}
		var fastest, xref []float64
		for i, o := range b.seq {
			if o.class == c && len(figs[i].xref) > 0 {
				fastest, xref = append(fastest, figs[i].fastest), append(xref, median(figs[i].xref))
			}
		}
		if len(xref) > 0 {
			m[c+"_p50_xref"] = metric{median(xref), "x"}
			b.logf("%s: over %d reads, median fastest of %d passes %.3f ms; %s_p50_xref %.4f",
				c, len(xref), b.passes, median(fastest), c, median(xref))
		}
	}
	if len(b.firstWindow) > 0 {
		b.logf("subscribe first window: n=%d p50=%.3f ms", len(b.firstWindow), median(b.firstWindow))
	}
	opsPerS := float64(completed) / wall.Seconds()
	m["heap_peak_mb"] = metric{median(b.heapPeaks), "MB"}
	errRate := 0.0
	if b.attempted > 0 {
		errRate = float64(b.failed) / float64(b.attempted)
	}
	b.logf("ops_per_s: %.3f (%d operations in %.3f s)", opsPerS, completed, wall.Seconds())
	b.logf("reference work: %.3f ms median of %d runs", median(b.refMS), len(b.refMS))
	b.logf("heap_peak_mb: %.3f (median of the passes' peaks: %s)", median(b.heapPeaks), fmtList(b.heapPeaks))
	b.logf("gc: %.4f of CPU time, %d cycles", gc.cpuFrac(), gc.cycles)
	b.logf("error_rate: %.6f (%d failed of %d attempted, %d wrong results)", errRate, b.failed, b.attempted, b.wrong)
	for _, e := range b.errs {
		b.logf("  error: %s", e)
	}
	if b.wrong > 0 {
		correct = false
	}
	for _, c := range readClasses {
		if _, ok := m[c+"_p50_xref"]; !ok {
			correct = false
			b.logf("no completed %s operations", c)
		}
	}
	return &result{Correct: correct, Attempted: b.attempted, Failed: b.failed, Metrics: m}
}

// readFigures are one planned read's figures over its issues.
type readFigures struct {
	fastest float64   // the fastest issue, in ms
	xref    []float64 // each issue over the reference work timed around it
}

// readFigures gathers the timed run's figures per planned read. An
// issue's reference time is the mean of the reference runs just before
// and just after it, so a slowdown from outside the program that lasts
// longer than the issue slows both sides of the ratio.
func (b *bench) readFigures() []readFigures {
	figs := make([]readFigures, len(b.seq))
	for k, is := range b.issues {
		if is.ms < 0 {
			continue
		}
		f := &figs[is.read]
		if len(f.xref) == 0 || is.ms < f.fastest {
			f.fastest = is.ms
		}
		f.xref = append(f.xref, is.ms/((b.refMS[k]+b.refMS[k+1])/2))
	}
	return figs
}

func isReadClass(c string) bool {
	for _, r := range readClasses {
		if r == c {
			return true
		}
	}
	return false
}

func fmtList(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

func fmtPaths(p map[string]int) string {
	if len(p) == 0 {
		return "-"
	}
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s:%d", k, p[k])
	}
	return strings.Join(parts, ",")
}

// finite guards a ratio against an empty denominator.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}
