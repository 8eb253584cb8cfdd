package main

import (
	"fmt"
	"os"
	"path/filepath"

	"nexus/internal/core"
	"nexus/internal/datagen"
	"nexus/internal/expr"
	"nexus/internal/schema"
	"nexus/internal/storage"
	"nexus/internal/table"
	"nexus/internal/value"
)

// Encoded-execution measurements (the BENCH_10 additions to -storage):
// the same selective pruned+projected query cold with the encoded
// kernels, cold with decode-to-plain, and warm from RAM — the ROADMAP
// bar is cold-encoded within 2× of warm — plus per-encoding filter
// kernel micro-benchmarks (encoded evaluation vs the typed loop over
// the materialized column it replaces).

// EncodedExtras are the non-timing measurements of the encoded section.
type EncodedExtras struct {
	WarmSelectiveNs        float64            `json:"warm_selective_ns"`
	ColdEncodedSelectiveNs float64            `json:"cold_encoded_selective_ns"`
	ColdDecodedSelectiveNs float64            `json:"cold_decoded_selective_ns"`
	ColdEncodedVsWarmRatio float64            `json:"cold_encoded_vs_warm_ratio"`
	AggColdEncodedNs       float64            `json:"agg_cold_encoded_ns"`
	AggColdDecodedNs       float64            `json:"agg_cold_decoded_ns"`
	EncodedScansServed     int64              `json:"encoded_scans_served"`
	EncodedAggsServed      int64              `json:"encoded_aggs_served"`
	FilterKernelSpeedup    map[string]float64 `json:"filter_kernel_speedup_by_encoding"`
}

type addFunc func(MicroResult, error) (MicroResult, error)

// runEncodedExec measures the encoded execution paths against a loaded,
// compacted engine. rows is the dataset size; the selective window is
// the same 5% sale_id range the pruned scans use, narrowed further by a
// region equality the dictionary kernels evaluate on codes.
func runEncodedExec(eng *storage.Engine, sch schema.Schema, rows int, quick bool, add addFunc) (EncodedExtras, error) {
	var ex EncodedExtras

	lo, hi := int64(rows/2), int64(rows/2+rows/20)
	scan, _ := core.NewScan("sales", sch)
	filt, err := core.NewFilter(scan, expr.And(
		expr.Ge(expr.Column("sale_id"), expr.CInt(lo)),
		expr.And(
			expr.Lt(expr.Column("sale_id"), expr.CInt(hi)),
			expr.Eq(expr.Column("region"), expr.CStr(datagen.Regions[0])))))
	if err != nil {
		return ex, err
	}
	sel, err := core.NewProject(filt, []string{"sale_id", "price"})
	if err != nil {
		return ex, err
	}
	selRows := rows / 20 / len(datagen.Regions)

	// Warm baseline: the dataset materialized in RAM, generic kernels.
	if _, err := eng.Execute(scan); err != nil {
		return ex, err
	}
	warm, err := add(measure("scan_warm_selective", selRows, func() error {
		_, err := eng.Execute(sel)
		return err
	}))
	if err != nil {
		return ex, err
	}
	ex.WarmSelectiveNs = warm.NsPerOp

	// Cold, decode-to-plain: what every query paid before encoded
	// execution.
	eng.SetEncodedExec(false)
	coldDec, err := add(measure("scan_cold_selective_decoded", selRows, func() error {
		eng.DropCache()
		_, err := eng.Execute(sel)
		return err
	}))
	if err != nil {
		return ex, err
	}
	ex.ColdDecodedSelectiveNs = coldDec.NsPerOp
	eng.DropCache()
	wantTbl, err := eng.Execute(sel)
	if err != nil {
		return ex, err
	}

	// Cold, encoded: predicates over codes and runs, materializing only
	// survivors.
	eng.SetEncodedExec(true)
	served0 := eng.EncodedScans()
	coldEnc, err := add(measure("scan_cold_selective_encoded", selRows, func() error {
		eng.DropCache()
		_, err := eng.Execute(sel)
		return err
	}))
	if err != nil {
		return ex, err
	}
	ex.ColdEncodedSelectiveNs = coldEnc.NsPerOp
	if eng.EncodedScans() == served0 {
		return ex, fmt.Errorf("encoded pre-filter served no segments — the measurement is vacuous")
	}
	eng.DropCache()
	gotTbl, err := eng.Execute(sel)
	if err != nil {
		return ex, err
	}
	if !table.EqualRows(wantTbl, gotTbl) {
		return ex, fmt.Errorf("encoded and decoded selective scans disagree")
	}

	ex.ColdEncodedVsWarmRatio = coldEnc.NsPerOp / warm.NsPerOp
	fmt.Printf("encoded cold vs warm: %.0f ns vs %.0f ns (%.2fx, bar 2.00x)\n",
		coldEnc.NsPerOp, warm.NsPerOp, ex.ColdEncodedVsWarmRatio)
	if ex.ColdEncodedVsWarmRatio > 2.0 {
		return ex, fmt.Errorf("cold encoded selective scan is %.2fx the warm path, over the 2x bar",
			ex.ColdEncodedVsWarmRatio)
	}

	// The grouped aggregate, cold: the encoded fold consumes runs and
	// codes without materializing a single input row.
	aggFilt, err := core.NewFilter(scan, expr.Ge(expr.Column("sale_id"), expr.CInt(lo)))
	if err != nil {
		return ex, err
	}
	agg, err := core.NewGroupAgg(aggFilt, []string{"region"}, []core.AggSpec{
		{Func: core.AggCount, As: "n"},
		{Func: core.AggSum, Arg: expr.Column("price"), As: "revenue"},
	})
	if err != nil {
		return ex, err
	}
	eng.SetEncodedExec(false)
	aggDec, err := add(measure("agg_cold_decoded", rows/2, func() error {
		eng.DropCache()
		_, err := eng.Execute(agg)
		return err
	}))
	if err != nil {
		return ex, err
	}
	ex.AggColdDecodedNs = aggDec.NsPerOp
	eng.DropCache()
	wantAgg, err := eng.Execute(agg)
	if err != nil {
		return ex, err
	}

	eng.SetEncodedExec(true)
	aggServed0 := eng.EncodedAggs()
	aggEnc, err := add(measure("agg_cold_encoded", rows/2, func() error {
		eng.DropCache()
		_, err := eng.Execute(agg)
		return err
	}))
	if err != nil {
		return ex, err
	}
	ex.AggColdEncodedNs = aggEnc.NsPerOp
	if eng.EncodedAggs() == aggServed0 {
		return ex, fmt.Errorf("encoded aggregate kernel served no queries — the measurement is vacuous")
	}
	eng.DropCache()
	gotAgg, err := eng.Execute(agg)
	if err != nil {
		return ex, err
	}
	if !table.EqualRows(wantAgg, gotAgg) {
		return ex, fmt.Errorf("encoded and decoded aggregates disagree")
	}

	ex.EncodedScansServed = eng.EncodedScans()
	ex.EncodedAggsServed = eng.EncodedAggs()
	return ex, nil
}

// filterKernels measures one predicate per page encoding: the encoded
// AndMatches kernel against the typed tight loop over the materialized
// column. The decoded baseline is deliberately the fastest plain-column
// evaluation we know how to write — the reported speedup is what the
// encoding itself buys, not boxing overhead.
func filterKernels(quick bool, add addFunc) (map[string]float64, error) {
	n := 1 << 19
	if quick {
		n = 1 << 16
	}
	tmp, err := os.MkdirTemp("", "nexus-bench-kernels-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	cats := make([]string, 8)
	for i := range cats {
		cats[i] = fmt.Sprintf("category-%02d", i)
	}
	intCol := func(f func(i int) int64) *table.Table {
		b := table.NewBuilder(schema.New(schema.Attribute{Name: "c", Kind: value.KindInt64}), n)
		for i := 0; i < n; i++ {
			b.MustAppend(value.NewInt(f(i)))
		}
		return b.Build()
	}
	strCol := func() *table.Table {
		b := table.NewBuilder(schema.New(schema.Attribute{Name: "c", Kind: value.KindString}), n)
		for i := 0; i < n; i++ {
			b.MustAppend(value.NewString(cats[i%len(cats)]))
		}
		return b.Build()
	}

	type kernelCase struct {
		name    string
		tbl     *table.Table
		dicts   storage.DictSet
		wantEnc uint8
		op      value.BinOp
		cv      value.Value
		holds   func(mat *table.Column, m []bool) // typed decoded baseline
	}
	cases := []kernelCase{
		{
			name: "plain", tbl: intCol(func(i int) int64 { return int64(i) }),
			wantEnc: storage.PageEncPlain, op: value.OpGt, cv: value.NewInt(int64(n / 2)),
			holds: func(mat *table.Column, m []bool) {
				vals, c := mat.Ints(), int64(n/2)
				for r := range m {
					m[r] = m[r] && vals[r] > c
				}
			},
		},
		{
			name: "rle", tbl: intCol(func(i int) int64 { return int64(i / 64) }),
			wantEnc: storage.PageEncRLE, op: value.OpGt, cv: value.NewInt(int64(n / 128)),
			holds: func(mat *table.Column, m []bool) {
				vals, c := mat.Ints(), int64(n/128)
				for r := range m {
					m[r] = m[r] && vals[r] > c
				}
			},
		},
		{
			name: "dict", tbl: strCol(),
			wantEnc: storage.PageEncDict, op: value.OpEq, cv: value.NewString(cats[3]),
			holds: func(mat *table.Column, m []bool) {
				vals, c := mat.Strs(), cats[3]
				for r := range m {
					m[r] = m[r] && vals[r] == c
				}
			},
		},
		{
			name: "dict_shared", tbl: strCol(), dicts: storage.DictSet{},
			wantEnc: storage.PageEncDictShared, op: value.OpEq, cv: value.NewString(cats[3]),
			holds: func(mat *table.Column, m []bool) {
				vals, c := mat.Strs(), cats[3]
				for r := range m {
					m[r] = m[r] && vals[r] == c
				}
			},
		},
	}

	speedups := make(map[string]float64, len(cases))
	for _, kc := range cases {
		file := filepath.Join(tmp, "kern_"+kc.name+".nxs")
		if err := os.WriteFile(file, storage.EncodeSegmentDict(kc.tbl, kc.dicts, kc.dicts != nil), 0o644); err != nil {
			return nil, err
		}
		es, err := storage.ReadSegmentFile(file, []int{0}, kc.dicts)
		if err != nil {
			return nil, err
		}
		ec := es.Cols[0]
		if ec.Encoding() != kc.wantEnc {
			return nil, fmt.Errorf("kernel %s: got encoding %d, want %d", kc.name, ec.Encoding(), kc.wantEnc)
		}
		mat, err := ec.Materialize()
		if err != nil {
			return nil, err
		}
		// The two sides run interleaved, one op each per round, and
		// the ratio is of per-side minimums: timed in two separate
		// windows, a burst of contention landing on one side alone
		// swung the ratio below the bar on a loaded host.
		m := make([]bool, n)
		ns, err := measureInterleaved("filter_"+kc.name, []func() error{
			func() error {
				for i := range m {
					m[i] = true
				}
				ec.AndMatches(kc.op, kc.cv, m)
				return nil
			},
			func() error {
				for i := range m {
					m[i] = true
				}
				kc.holds(mat, m)
				return nil
			},
		})
		if err != nil {
			return nil, err
		}
		enc, err := add(kernelResult("filter_"+kc.name+"_encoded", n, ns[0]))
		if err != nil {
			return nil, err
		}
		dec, err := add(kernelResult("filter_"+kc.name+"_decoded", n, ns[1]))
		if err != nil {
			return nil, err
		}
		speedups[kc.name] = dec.NsPerOp / enc.NsPerOp
		fmt.Printf("filter kernel %-11s encoded %.2fx the typed decoded loop\n", kc.name+":", speedups[kc.name])
	}

	// The load-bearing claims: an RLE filter does one comparison per run
	// instead of per row (the O(rows) selection-vector fill is shared by
	// both sides, so the end-to-end win is bounded), and dictionary
	// filters compare codes instead of strings. A plain page gains
	// nothing by construction, but it runs the expression layer's typed
	// comparison loop, so it must stay near parity with the baseline.
	for _, name := range []string{"rle", "dict", "dict_shared"} {
		if speedups[name] < 1.2 {
			return nil, fmt.Errorf("%s encoded filter speedup %.2fx, want >= 1.2x", name, speedups[name])
		}
	}
	if speedups["plain"] < 0.8 {
		return nil, fmt.Errorf("plain encoded filter speedup %.2fx, want >= 0.8x", speedups["plain"])
	}
	return speedups, nil
}

// kernelResult reports one side of an interleaved kernel pair in the
// micro-benchmark shape. NsPerOp is the side's fastest single op, hence
// Iters 1, and RowsPerSec the throughput at that op.
func kernelResult(name string, rows int, nsPerOp float64) (MicroResult, error) {
	return MicroResult{Name: name, Rows: rows, Iters: 1, NsPerOp: nsPerOp, RowsPerSec: float64(rows) / nsPerOp * 1e9}, nil
}
