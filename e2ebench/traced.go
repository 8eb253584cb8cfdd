package main

import (
	"fmt"
	"strings"
	"time"

	"nexus/internal/obs"
)

// perClassLayer are the per-layer metrics reported for each read class
// as "<class>.<name>", with their units. Each is the median over the
// traced run's operations of that class.
var perClassLayer = []layerMetric{
	{"client_us", "us"},
	{"planner.plan_us", "us"},
	{"wire.plan_codec_us", "us"},
	{"storage.execute_us", "us"},
	{"wire.result_encode_us", "us"},
	{"wire.result_decode_us", "us"},
	{"wire.result_bytes", "bytes"},
	{"frontdoor.residual_us", "us"},
	{"trace.unattributed_share", "ratio"},
	{"trace.overhead_share", "ratio"},
	{"storage.segment_read_us", "us"},
	{"storage.segment_io_us", "us"},
	{"storage.crc_us", "us"},
	{"storage.bytes_read_per_op", "bytes"},
	{"storage.segments_scanned_per_op", "count"},
	{"storage.segments_pruned_per_op", "count"},
	{"storage.encoded_scans_per_op", "count"},
	{"storage.encoded_aggs_per_op", "count"},
	{"storage.segment_cache_hit_ratio", "ratio"},
	{"go.alloc_bytes_per_op", "bytes"},
}

// classLayer are the per-layer metrics only some classes have: the
// self time of the plan's root operator (the encoded kernels absorb
// the rest), and the encoded predicate and materialization, which the
// all-column export does not use.
var classLayer = map[string][]layerMetric{
	classPoint:  {{"exec.project_self_us", "us"}, {"storage.predicate_us", "us"}, {"storage.materialize_us", "us"}},
	classAgg:    {{"exec.groupagg_self_us", "us"}, {"storage.predicate_us", "us"}},
	classExport: {{"exec.filter_self_us", "us"}},
}

type layerMetric struct{ name, unit string }

// obsTotals are the obs registry's counters and histograms summed over
// their labels.
type obsTotals map[string]obs.HistogramStats

func readObs() obsTotals {
	out := obsTotals{}
	for name, fam := range obs.Default.Snapshot() {
		var agg obs.HistogramStats
		for _, v := range fam.Values {
			switch x := v.(type) {
			case int64:
				agg.Count += x
			case obs.HistogramStats:
				agg.Count += x.Count
				agg.Sum += x.Sum
			}
		}
		out[name] = agg
	}
	return out
}

// delta is a family's change since before: count, and sum for
// histograms.
func (o obsTotals) delta(before obsTotals, name string) (int64, float64) {
	return o[name].Count - before[name].Count, o[name].Sum - before[name].Sum
}

// mean is a histogram's mean observation since before, scaled.
func (o obsTotals) mean(before obsTotals, name string, scale float64) float64 {
	n, sum := o.delta(before, name)
	return finite(sum / float64(n) * scale)
}

// traced is the per-layer run. It runs the planned sequence once
// untraced, for the client times tracing is compared against, and once
// traced.
func (b *bench) traced() (*result, error) {
	tr, err := newTracer(b)
	if err != nil {
		return nil, err
	}
	reader, err := dial(b.srv.Addr())
	if err != nil {
		return nil, err
	}
	defer reader.close()
	if err := b.warm(reader); err != nil {
		return nil, err
	}
	if err := b.pass(reader, nil); err != nil {
		return nil, err
	}
	untraced := b.lat
	b.lat = map[string][]float64{}

	obs0, gc0 := readObs(), readGCStats()
	start := time.Now()
	if err := b.pass(reader, tr); err != nil {
		return nil, err
	}
	wall := time.Since(start)
	obs1, gc := readObs(), readGCStats().sub(gc0)
	correct, err := b.closeIngest()
	if err != nil {
		return nil, err
	}

	m := map[string]metric{}
	for _, c := range readClasses {
		s := tr.byClass[c]
		for _, l := range append(perClassLayer, classLayer[c]...) {
			m[c+"."+l.name] = metric{median(s[l.name]), l.unit}
		}
		m[c+".trace.overhead_share"] = metric{finite(median(s["client_us"])/(1e3*median(untraced[c])) - 1), "ratio"}
		b.printBreakdown(c, s)
	}
	refused, _ := obs1.delta(obs0, "nexus_server_admission_refused_total")
	m["go.gc_cpu_frac"] = metric{gc.cpuFrac(), "ratio"}
	m["server.admission_refused"] = metric{float64(refused), "count"}
	b.logf("traced pass: %.3f s; admission refused %d; gc %.4f of CPU", wall.Seconds(), refused, gc.cpuFrac())
	if b.cfg.w.ingest {
		b.printWritePath(tr, obs0, obs1)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.wrong > 0 {
		correct = false
	}
	b.logf("error_rate: %.6f (%d failed of %d attempted, %d wrong results)",
		finite(float64(b.failed)/float64(b.attempted)), b.failed, b.attempted, b.wrong)
	for _, e := range b.errs {
		b.logf("  error: %s", e)
	}
	return &result{Correct: correct, Attempted: b.attempted, Failed: b.failed, Metrics: m}, nil
}

// printBreakdown prints how a class's median client time splits by
// layer in the traced pass.
func (b *bench) printBreakdown(class string, s sampleSet) {
	client := median(s["client_us"])
	share := func(name string) string {
		v := median(s[name])
		return fmt.Sprintf("%s %.1f us (%.1f%%)", name, v, 100*finite(v/client))
	}
	b.logf("%s traced (n=%d): client %.1f us = %s + %s + %s + %s + %s + %s; unattributed share %.3f",
		class, len(s["client_us"]), client,
		share("planner.plan_us"), share("wire.plan_codec_us"), share("storage.execute_us"),
		share("wire.result_encode_us"), share("wire.result_decode_us"), share("frontdoor.residual_us"),
		median(s["trace.unattributed_share"]))
	parts := []string{share("storage.segment_read_us")}
	for _, l := range classLayer[class] {
		parts = append(parts, share(l.name))
	}
	b.logf("%s   inside execute: %s; a cold read's file read %s and crc %s",
		class, strings.Join(parts, ", "), share("storage.segment_io_us"), share("storage.crc_us"))
}

// printWritePath prints the ingest_mix write and stream paths over the
// traced pass. They are ingest_mix's alone, so they are printed here
// rather than reported as per-layer metrics every workload must carry.
func (b *bench) printWritePath(tr *tracer, obs0, obs1 obsTotals) {
	app, sub := tr.byClass[classAppend], tr.byClass[classSubscribe]
	flushes, _ := obs1.delta(obs0, "nexus_storage_flushes_total")
	compactions, _ := obs1.delta(obs0, "nexus_storage_compactions_total")
	rewritten, _ := obs1.delta(obs0, "nexus_storage_compact_bytes_in_total")
	_, stall := obs1.delta(obs0, "nexus_server_credit_stall_seconds")
	b.logf("write path: append.client_us %.1f, append.storage.append_us %.1f, storage.wal_fsync_us %.1f, storage.wal_batch_records %.2f",
		median(app["client_us"]), median(app["storage.append_us"]),
		obs1.mean(obs0, "nexus_wal_fsync_seconds", 1e6), obs1.mean(obs0, "nexus_wal_commit_batch_records", 1))
	b.logf("background: storage.flushes %d, storage.flush_us %.1f, storage.compactions %d, storage.compact_us %.1f, storage.compact_bytes_rewritten %d",
		flushes, obs1.mean(obs0, "nexus_storage_flush_seconds", 1e6),
		compactions, obs1.mean(obs0, "nexus_storage_compact_seconds", 1e6), rewritten)
	b.logf("stream path: subscribe.client_us %.1f, stream.first_window_ms %.3f, server.window_emit_us %.1f, server.credit_stall_us %.1f per subscription",
		median(sub["client_us"]), median(sub["stream.first_window_ms"]),
		obs1.mean(obs0, "nexus_server_window_emit_seconds", 1e6), finite(stall*1e6/float64(len(sub["client_us"]))))
}
