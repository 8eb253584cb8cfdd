package storage

import (
	"fmt"

	"nexus/internal/expr"
	"nexus/internal/schema"
	"nexus/internal/table"
	"nexus/internal/value"
)

// Encoded execution: evaluate scan predicates directly over the page
// encodings instead of decoding every page to plain columns first. An
// EncodedColumn is the parsed-but-not-materialized view of one page —
// for an RLE page that is the run list (a predicate tests each run's
// value once and accepts or rejects all its rows in O(1)), for a dict or
// shared-dict page the dictionary entries plus per-row codes (the
// constant is compared against each distinct entry once, then rows are
// filtered by a table lookup on their code — no string comparison per
// row), and for a plain page the typed payload itself, which the
// expression layer's typed comparison kernel (expr.AndCompare) filters
// in one tight loop with no per-row boxing. Rows that survive every
// conjunct are materialized selectively.
//
// Correctness contract: AndMatches must agree exactly with what the
// vectorized expression kernels would compute on the materialized
// column. It calls the same comparison code (expr.AndCompare for plain
// pages and dictionary entries, expr.CompareHolds per run), which
// bottoms out in value.Compare's total order (NULL first, int64 exact,
// mixed numerics as NaN-first floats), so a NULL row matches `<`, `<=`,
// and `!=` against a non-NULL constant here exactly as it does there;
// the differential suite in encoded_diff_test.go holds the two paths
// byte-identical.

// EncodedColumn is one column page in its encoded form. Exactly one
// representation is populated, per enc:
//
//	PageEncPlain                  col
//	PageEncDict/PageEncDictShared dict + codes + valid
//	PageEncRLE                    runLens + runVals
type EncodedColumn struct {
	kind value.Kind
	rows int
	enc  uint8

	col *table.Column // plain: already materialized

	dict  *table.Column // dict entries, indexed by code
	codes []uint32      // per-row codes (bounds-checked at parse)
	valid []bool        // nil = all valid

	runLens []int         // per-run lengths (positive, sum = rows)
	runVals []value.Value // per-run values (value.Null for null runs)
}

// Rows returns the page's row count.
func (ec *EncodedColumn) Rows() int { return ec.rows }

// Kind returns the column kind.
func (ec *EncodedColumn) Kind() value.Kind { return ec.kind }

// Encoding returns the page encoding this view was parsed from.
func (ec *EncodedColumn) Encoding() uint8 { return ec.enc }

// EncodedSegment is a projected segment read whose columns stay in
// encoded form: what ReadSegmentFile and Store.ReadSegmentEncoded return
// and the encoded scan/aggregate paths consume. Schema, Meta.Zones and Cols
// cover only the selected columns, in selection order.
type EncodedSegment struct {
	Schema    schema.Schema
	Cols      []*EncodedColumn
	Meta      SegmentMeta
	FileBytes int64
}

// encodedFromColumn wraps an already-materialized column so callers can
// treat warm tables, tails, and v1 segments uniformly with encoded
// pages.
func encodedFromColumn(col *table.Column) *EncodedColumn {
	return &EncodedColumn{kind: col.Kind(), rows: col.Len(), enc: PageEncPlain, col: col}
}

// parsePageEncoded is the one page parser every segment read goes
// through: it verifies framing, CRC and code bounds and returns the
// page's encoded view without materializing rows (Materialize does that
// where a plain column is needed). In structural mode a shared-dict page
// is bounds-checked but not resolved against a dictionary.
func parsePageEncoded(b []byte, kind value.Kind, ctx pageCtx) (*EncodedColumn, error) {
	enc, rows, d, err := parsePageHeader(b)
	if err != nil {
		return nil, err
	}
	ec := &EncodedColumn{kind: kind, rows: rows, enc: enc}
	switch enc {
	case PageEncPlain:
		ec.col, err = getPlainPayload(d, kind, rows)
	case PageEncDict:
		ec.dict, ec.codes, ec.valid, err = getDictEncoded(d, kind, rows)
	case PageEncRLE:
		ec.runLens, ec.runVals, err = getRLERuns(d, kind, rows)
	case PageEncDictShared:
		ec.dict, ec.codes, ec.valid, err = getDictSharedEncoded(d, kind, rows, ctx)
	default:
		return nil, fmt.Errorf("storage: unknown column page encoding %d", enc)
	}
	if err != nil {
		return nil, err
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("storage: %s page: %w", encodingName(enc), err)
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("storage: %s page has %d trailing bytes", encodingName(enc), d.Remaining())
	}
	if ec.col != nil && ec.col.Len() != rows {
		return nil, fmt.Errorf("storage: %s page decoded %d rows, header says %d", encodingName(enc), ec.col.Len(), rows)
	}
	return ec, nil
}

// AndMatches ANDs `row op val` into acc (len acc == Rows()): acc[r] is
// cleared wherever the predicate does not hold; rows already false are
// skipped. NULL rows compare as value.Null under the total order, which
// is exactly what the vectorized kernels do on a materialized column.
//
// Cost: one value.Compare per RLE run; one typed-kernel comparison per
// distinct dictionary entry plus a table lookup per row; on plain pages
// (and wrapped columns) expr.AndCompare's typed loop over the raw
// payload, with no per-row boxing.
func (ec *EncodedColumn) AndMatches(op value.BinOp, val value.Value, acc []bool) {
	switch ec.enc {
	case PageEncRLE:
		at := 0
		for i, n := range ec.runLens {
			if !expr.CompareHolds(op, ec.runVals[i], val) {
				for j := at; j < at+n; j++ {
					acc[j] = false
				}
			}
			at += n
		}
	case PageEncDict, PageEncDictShared:
		verdict := make([]bool, ec.dict.Len())
		for c := range verdict {
			verdict[c] = true
		}
		expr.AndCompare(op, ec.dict, val, verdict)
		nullVerdict := expr.CompareHolds(op, value.Null, val)
		if ec.valid == nil {
			for r, c := range ec.codes {
				if acc[r] && !verdict[c] {
					acc[r] = false
				}
			}
			return
		}
		for r, c := range ec.codes {
			if !acc[r] {
				continue
			}
			v := nullVerdict
			if ec.valid[r] {
				v = verdict[c]
			}
			if !v {
				acc[r] = false
			}
		}
	default: // plain (and wrapped columns)
		expr.AndCompare(op, ec.col, val, acc)
	}
}

// Materialize decodes the full page to a plain column.
func (ec *EncodedColumn) Materialize() (*table.Column, error) {
	switch ec.enc {
	case PageEncRLE:
		return fillRuns(ec.kind, ec.runLens, ec.runVals, ec.rows)
	case PageEncDict, PageEncDictShared:
		return materializeDict(ec.dict, ec.codes, ec.valid), nil
	default:
		return ec.col, nil
	}
}

// MaterializeRows decodes only the selected rows (sel strictly
// ascending, every index < Rows()) to a plain column — the selective
// half of encoded execution: rows a predicate rejected are never
// materialized.
func (ec *EncodedColumn) MaterializeRows(sel []int) (*table.Column, error) {
	switch ec.enc {
	case PageEncRLE:
		return ec.gatherRuns(sel)
	case PageEncDict, PageEncDictShared:
		codes := make([]uint32, len(sel))
		var valid []bool
		if ec.valid != nil {
			valid = make([]bool, len(sel))
			for i, r := range sel {
				codes[i] = ec.codes[r]
				valid[i] = ec.valid[r]
			}
			allValid := true
			for _, v := range valid {
				if !v {
					allValid = false
					break
				}
			}
			if allValid {
				valid = nil
			}
		} else {
			for i, r := range sel {
				codes[i] = ec.codes[r]
			}
		}
		return materializeDict(ec.dict, codes, valid), nil
	default:
		return ec.col.Gather(sel), nil
	}
}

// gatherRuns materializes selected rows of an RLE page by walking runs
// and selection together (both ascending), so cost is O(runs + len(sel))
// with one unbox per touched run.
func (ec *EncodedColumn) gatherRuns(sel []int) (*table.Column, error) {
	lens := make([]int, 0, len(ec.runLens))
	vals := make([]value.Value, 0, len(ec.runVals))
	i, at := 0, 0 // current run, its start row
	count := 0
	for _, r := range sel {
		for r >= at+ec.runLens[i] {
			at += ec.runLens[i]
			i++
		}
		if n := len(lens); n > 0 && vals[n-1] == ec.runVals[i] {
			lens[n-1]++
		} else {
			lens = append(lens, 1)
			vals = append(vals, ec.runVals[i])
		}
		count++
	}
	return fillRuns(ec.kind, lens, vals, count)
}
