package storage

import (
	"os"
	"path/filepath"
	"testing"

	"nexus/internal/table"
	"nexus/internal/value"
)

// FuzzSegment hardens the segment readers against arbitrary bytes: the
// in-memory decoder and the file reader must both either return an
// error or the same segment, whose rows survive a re-encode/decode
// round trip — never panic, never fabricate rows.
func FuzzSegment(f *testing.F) {
	f.Add(EncodeSegment(rowsTable(0, 10)))
	f.Add(EncodeSegment(rowsTable(0, 0)))
	f.Add(EncodeSegment(nullableTable()))
	// Legacy v1 seeds: the decoder dispatches on the version byte and
	// must stay robust for both layouts.
	f.Add(EncodeSegmentV1(rowsTable(0, 10)))
	f.Add(EncodeSegmentV1(nullableTable()))
	// A dict-heavy v2 seed (few distinct values over many rows) steers
	// the fuzzer at the non-plain page decoders.
	small := rowsTable(0, 10)
	parts := make([]*table.Table, 19)
	for i := range parts {
		parts[i] = small
	}
	if repeated, err := small.Concat(parts...); err == nil {
		f.Add(EncodeSegment(repeated))
	}
	// v3 seeds: segments whose string pages resolve through a shared
	// dictionary. fuzzDicts below carries the same dictionary into the
	// fuzz body, so mutations reach the code-bounds and epoch armor
	// rather than dying at "no dictionary".
	fuzzDicts := DictSet{}
	v3 := EncodeSegmentDict(lowCardTable(130), fuzzDicts, true)
	f.Add(v3)
	f.Add(v3[:len(v3)-3])
	hostileCode := append([]byte(nil), v3...)
	hostileCode[len(hostileCode)-6] ^= 0xff // codes sit at the tail of the last page
	f.Add(hostileCode)

	// A few structurally-broken seeds steer the fuzzer at the armor.
	trunc := EncodeSegment(rowsTable(0, 3))
	f.Add(trunc[:len(trunc)-2])
	flip := append([]byte(nil), trunc...)
	flip[len(flip)/2] ^= 0xff
	f.Add(flip)

	// One scratch file per fuzz worker process; execs within a worker
	// run one at a time.
	path := filepath.Join(f.TempDir(), "seg.nxs")
	f.Fuzz(func(t *testing.T, data []byte) {
		// The structural verifier and the dictionary-aware decoder see
		// every input too: error or success, never a panic. A segment
		// that decodes must agree with itself on the row count.
		_ = VerifySegment(data)
		if dseg, err := DecodeSegment(data, fuzzDicts); err == nil {
			if int64(dseg.Table.NumRows()) != dseg.Meta.Rows {
				t.Fatalf("dict decode claims %d rows, table has %d", dseg.Meta.Rows, dseg.Table.NumRows())
			}
		}
		// The file reader queries use has bounds checks of its own (page
		// offsets past the header, page ranges within the file size). It
		// must accept exactly what the in-memory decoder accepts, and
		// agree with it column for column.
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		es, ferr := ReadSegmentFile(path, nil, nil)
		seg, err := DecodeSegment(data, nil)
		if (ferr == nil) != (err == nil) {
			t.Fatalf("file reader error %v, in-memory decoder error %v", ferr, err)
		}
		if err != nil {
			return
		}
		if len(es.Cols) != seg.Table.NumCols() || es.Meta.Rows != seg.Meta.Rows {
			t.Fatalf("file reader read %d columns of %d rows, decoder %d of %d",
				len(es.Cols), es.Meta.Rows, seg.Table.NumCols(), seg.Meta.Rows)
		}
		for c, ec := range es.Cols {
			col, err := ec.Materialize()
			if err != nil {
				t.Fatalf("file reader column %d: %v", c, err)
			}
			colEq(t, seg.Table.Col(c), col, "file reader vs decoder")
		}
		// Anything that decodes must be internally consistent.
		if int64(seg.Table.NumRows()) != seg.Meta.Rows {
			t.Fatalf("decoded segment claims %d rows, table has %d", seg.Meta.Rows, seg.Table.NumRows())
		}
		re2, err := DecodeSegment(EncodeSegment(seg.Table), nil)
		if err != nil {
			t.Fatalf("re-encoded segment fails to decode: %v", err)
		}
		if !table.EqualRows(seg.Table, re2.Table) {
			t.Fatal("rows changed across re-encode")
		}
	})
}

// nullableTable mixes NULLs into every column, exercising validity
// bitmaps and NULL zone minima.
func nullableTable() *table.Table {
	base := rowsTable(0, 6)
	b := table.NewBuilder(base.Schema(), 8)
	for i := 0; i < base.NumRows(); i++ {
		if i%2 == 1 {
			b.MustAppend(value.Null, value.Null, value.Null)
		} else {
			b.MustAppend(base.Value(i, 0), base.Value(i, 1), base.Value(i, 2))
		}
	}
	return b.Build()
}
