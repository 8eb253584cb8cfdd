package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"nexus/internal/core"
	"nexus/internal/engines/exec"
	"nexus/internal/obs"
	"nexus/internal/planner"
	"nexus/internal/provider"
	"nexus/internal/schema"
	"nexus/internal/storage"
	"nexus/internal/table"
	"nexus/internal/wire"
)

// The traced run. Every operation is issued once through the client,
// then once more as the sequence of calls the request makes into each
// layer — planner, wire codec, storage engine — made directly from this
// package on the same cache state. A span is recorded around each call;
// spans stay in memory until the run ends, when each layer's self time
// is summarized per class. The program's own spans are not used.

// span is one timed call into a layer: name, interval relative to the
// tracer's epoch, and the span it was made under (-1 for a root).
type span struct {
	name       string
	parent     int
	start, end time.Duration
}

// selfTimes gives each span's duration minus the part of its interval
// that its children cover (overlapping children count once).
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := make([][2]time.Duration, 0, len(kids[i]))
		for _, k := range kids[i] {
			lo, hi := max(spans[k].start, s.start), min(spans[k].end, s.end)
			if lo < hi {
				ivs = append(ivs, [2]time.Duration{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		covered, reach := time.Duration(0), s.start
		for _, iv := range ivs {
			lo := max(iv[0], reach)
			if iv[1] > lo {
				covered += iv[1] - lo
				reach = iv[1]
			}
		}
		out[i] = s.end - s.start - covered
	}
	return out
}

// opSelfTimes sums, per operator kind, each executed plan node's
// inclusive time minus that of its nearest executed descendants. Nodes
// the engine absorbed into a kernel have no stats of their own; their
// time stays with the kernel's root.
func opSelfTimes(root core.Node, stats func(core.Node) (time.Duration, bool)) map[string]time.Duration {
	out := map[string]time.Duration{}
	var walk func(n core.Node) time.Duration // returns the inclusive time n's ancestors should subtract
	walk = func(n core.Node) time.Duration {
		var below time.Duration
		for _, c := range n.Children() {
			below += walk(c)
		}
		incl, ok := stats(n)
		if !ok {
			return below
		}
		out[n.Kind().String()] += incl - below
		return incl
	}
	walk(root)
	return out
}

// sampleSet collects per-operation values by metric name.
type sampleSet map[string][]float64

func (s sampleSet) add(name string, v float64) { s[name] = append(s[name], v) }

// tracer records spans and per-operation figures during the traced run.
type tracer struct {
	eng   *storage.Engine
	reg   *provider.Registry
	epoch time.Time
	cold  bool

	mu      sync.Mutex
	spans   []span
	byClass map[string]sampleSet
}

func newTracer(b *bench) (*tracer, error) {
	reg := provider.NewRegistry()
	if err := reg.Add(b.data.eng); err != nil {
		return nil, err
	}
	return &tracer{eng: b.data.eng, reg: reg, epoch: time.Now(), cold: b.cfg.w.cold,
		byClass: map[string]sampleSet{}}, nil
}

// begin opens a span; end closes it.
func (t *tracer) begin(name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.epoch)})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// tree copies the spans recorded from root on, re-indexed so that root
// is span 0. Only one goroutine records a given operation's spans, and
// they are contiguous apart from other goroutines' roots, which the
// copy drops.
func (t *tracer) tree(root int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := map[int]int{root: 0}
	out := []span{{name: t.spans[root].name, parent: -1, start: t.spans[root].start, end: t.spans[root].end}}
	for i := root + 1; i < len(t.spans); i++ {
		p, ok := idx[t.spans[i].parent]
		if !ok {
			continue
		}
		s := t.spans[i]
		s.parent = p
		idx[i] = len(out)
		out = append(out, s)
	}
	return out
}

// call runs fn under a span.
func (t *tracer) call(name string, parent int, fn func() error) error {
	id := t.begin(name, parent)
	err := fn()
	t.end(id)
	return err
}

func (t *tracer) sample(class, name string, v float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.byClass[class] == nil {
		t.byClass[class] = sampleSet{}
	}
	t.byClass[class].add(name, v)
}

// noteClient books a read's client time and the counters it moved.
func (t *tracer) noteClient(class string, el time.Duration, d opCounters) {
	t.sample(class, "client_us", us(el))
	t.sample(class, "storage.bytes_read_per_op", float64(d.eng.bytesRead))
	t.sample(class, "storage.segments_scanned_per_op", float64(d.eng.scanned))
	t.sample(class, "storage.segments_pruned_per_op", float64(d.eng.skipped))
	t.sample(class, "storage.encoded_scans_per_op", float64(d.eng.encodedScans))
	t.sample(class, "storage.encoded_aggs_per_op", float64(d.eng.encodedAggs))
	t.sample(class, "storage.segment_cache_hit_ratio", finite(float64(d.cache.hit)/float64(d.cache.total())))
	t.sample(class, "go.alloc_bytes_per_op", float64(d.alloc))
}

// replay runs a read's layer calls after its client half (el).
func (t *tracer) replay(c *client, o op, el time.Duration) error {
	node, err := c.query(o).Plan()
	if err != nil {
		return err
	}
	if t.cold {
		t.eng.DropCache()
	}
	root := t.begin(o.class, -1)
	opts := planner.DefaultOptions()
	var frag core.Node
	err = t.call("planner.plan", root, func() error {
		opt, err := planner.Optimize(node, opts)
		if err != nil {
			return err
		}
		pp, err := planner.Partition(opt, t.reg, opts)
		if err != nil {
			return err
		}
		if len(pp.Fragments) != 1 {
			return fmt.Errorf("%s plan has %d fragments, want 1", o.class, len(pp.Fragments))
		}
		frag = pp.Root().Plan
		return nil
	})
	if err != nil {
		return err
	}
	var plan core.Node
	err = t.call("wire.plan_codec", root, func() error {
		_, p, err := wire.DecodeExecute(wire.EncodeExecute(1, frag))
		plan = p
		return err
	})
	if err != nil {
		return err
	}
	tr := exec.NewTrace()
	var res *table.Table
	err = t.call("storage.execute", root, func() error {
		r, err := t.eng.ExecuteTraced(plan, tr)
		res = r
		return err
	})
	if err != nil {
		return err
	}
	var frame []byte
	_ = t.call("wire.result_encode", root, func() error {
		frame = wire.EncodeResult(1, res)
		return nil
	})
	err = t.call("wire.result_decode", root, func() error {
		_, _, err := wire.DecodeResult(frame)
		return err
	})
	if err != nil {
		return err
	}
	t.end(root)
	t.sample(o.class, "wire.result_bytes", float64(len(frame)))
	self := opSelfTimes(plan, func(n core.Node) (time.Duration, bool) {
		st, ok := tr.Get(n)
		return st.Wall, ok
	})
	for k, d := range self {
		t.sample(o.class, "exec."+k+"_self_us", us(d))
	}
	t.closeOp(o.class, root, el)
	return t.storageReplay(o, plan)
}

// closeOp turns one operation's layer spans into samples: each layer's
// self time, and the client time the layers do not account for.
func (t *tracer) closeOp(class string, root int, client time.Duration) {
	spans := t.tree(root)
	self := selfTimes(spans)
	var layers time.Duration
	for i, s := range spans {
		if s.parent == 0 {
			t.sample(class, s.name+"_us", us(self[i]))
			layers += s.end - s.start
		}
	}
	residual := client - layers
	t.sample(class, "frontdoor.residual_us", us(residual))
	t.sample(class, "trace.unattributed_share", finite(float64(residual)/float64(client)))
}

// storageReplay repeats the storage engine's segment path for the plan
// layer by layer: per segment surviving its zone maps, the (cached)
// segment read, the encoded predicate and the selective
// materialization. It also times the whole-file read and CRC
// verification that a cold read of each segment includes.
func (t *tracer) storageReplay(o op, plan core.Node) error {
	var acc planner.ScanAccess
	materialize := true
	if agg, ok := planner.AnalyzeAggAccess(plan); ok {
		acc, materialize = agg.ScanAccess, false
	} else if acc, ok = planner.AnalyzeScanAccess(plan); !ok {
		return fmt.Errorf("%s: plan is not a scan stack", o.class)
	}
	// A compaction can delete a segment file between the snapshot and
	// its read, as the engine's own reads allow for; take a fresh
	// snapshot then, a bounded number of times.
	for attempt := 1; ; attempt++ {
		err := t.replaySegments(o.class, acc, materialize)
		if err == nil || attempt == 3 || !errors.Is(err, fs.ErrNotExist) {
			return err
		}
	}
}

// replaySegments is one attempt of storageReplay over one snapshot of
// the dataset's segments.
func (t *tracer) replaySegments(class string, acc planner.ScanAccess, materialize bool) error {
	if t.cold {
		t.eng.DropCache()
	}
	st := t.eng.Backing()
	name := acc.Scan.Dataset
	sch, _ := st.Schema(name)
	refs, _, ok := st.Segments(name)
	if !ok {
		return fmt.Errorf("no dataset %q", name)
	}
	var positions []int
	for _, c := range acc.Cols {
		positions = append(positions, sch.IndexOf(c))
	}
	encoded := positions != nil && len(acc.Preds) > 0
	root := t.begin("storage."+class, -1)
	var ioT, crcT time.Duration
	for _, ref := range refs {
		if !mayMatch(sch, ref, acc.Preds) {
			continue
		}
		if !encoded {
			err := t.call("storage.segment_read", root, func() error {
				_, err := st.ReadSegment(name, ref)
				return err
			})
			if err != nil {
				return err
			}
		} else {
			var es *storage.EncodedSegment
			err := t.call("storage.segment_read", root, func() error {
				var err error
				es, err = st.ReadSegmentEncoded(name, ref, positions)
				return err
			})
			if err != nil {
				return err
			}
			var match []bool
			_ = t.call("storage.predicate", root, func() error {
				match = make([]bool, es.Cols[0].Rows())
				for i := range match {
					match[i] = true
				}
				for _, p := range acc.Preds {
					es.Cols[es.Schema.IndexOf(p.Col)].AndMatches(p.Op, p.Val, match)
				}
				return nil
			})
			if materialize {
				err := t.call("storage.materialize", root, func() error {
					var sel []int
					for r, m := range match {
						if m {
							sel = append(sel, r)
						}
					}
					for _, c := range es.Cols {
						if _, err := c.MaterializeRows(sel); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					return err
				}
			}
		}
		// The whole-file read and CRC check a cold read of this segment
		// includes; measured in every workload, on the path only in
		// cold_read.
		start := time.Now()
		data, err := os.ReadFile(filepath.Join(st.Dir(), ref.File))
		ioT += time.Since(start)
		if err != nil {
			return err
		}
		start = time.Now()
		err = storage.VerifySegment(data)
		crcT += time.Since(start)
		if err != nil {
			return err
		}
	}
	t.end(root)
	spans := t.tree(root)
	self := selfTimes(spans)
	sums := map[string]time.Duration{}
	for i, s := range spans {
		if s.parent == 0 {
			sums[s.name] += self[i]
		}
	}
	for _, n := range []string{"storage.segment_read", "storage.predicate", "storage.materialize"} {
		t.sample(class, n+"_us", us(sums[n]))
	}
	t.sample(class, "storage.segment_io_us", us(ioT))
	t.sample(class, "storage.crc_us", us(crcT))
	return nil
}

// mayMatch tests the conjuncts against a segment's zone maps, as the
// engine does before reading it.
func mayMatch(sch schema.Schema, ref storage.SegmentRef, preds []planner.ScanPred) bool {
	for _, p := range preds {
		i := sch.IndexOf(p.Col)
		if i < 0 || i >= len(ref.Meta.Zones) {
			continue
		}
		if !ref.Meta.Zones[i].MayMatch(p.Op, p.Val) {
			return false
		}
	}
	return true
}

// replayAppend repeats an acknowledged client append in-process
// against a separate dataset, so the base data stays as the oracle
// expects.
func (t *tracer) replayAppend(sb salesBatch, client time.Duration) error {
	tab := salesBatchInternal(sb)
	start := time.Now()
	err := t.eng.Append("append_replay", tab)
	el := time.Since(start)
	if err != nil {
		return err
	}
	t.sample(classAppend, "client_us", us(client))
	t.sample(classAppend, "storage.append_us", us(el))
	return nil
}

func (t *tracer) noteSubscribe(first, total time.Duration) {
	t.sample(classSubscribe, "client_us", us(total))
	t.sample(classSubscribe, "stream.first_window_ms", float64(first.Nanoseconds())/1e6)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// cacheCounts are the storage segment cache lookups so far.
type cacheCounts struct{ hit, miss int64 }

func (c cacheCounts) total() int64 { return c.hit + c.miss }

func cacheLookups() cacheCounts {
	v := obs.Default.CounterVec("nexus_storage_segment_cache_total", "", "result")
	return cacheCounts{hit: v.With("hit").Value(), miss: v.With("miss").Value()}
}

func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
