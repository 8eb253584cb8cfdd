// Package wire implements the binary wire format of the nexus framework:
// values, schemas, whole tables, scalar expressions and algebra plans all
// encode to compact byte strings, and a length-prefixed message layer
// carries them between clients and servers. Shipping a query as one
// encoded expression tree — rather than a conversation of per-operator
// calls — is the LINQ property the paper singles out: it "cuts down on
// communication between client and Provider, but also permits
// optimization and query planning at the Provider".
package wire

import (
	"errors"
	"fmt"
	"math"

	"nexus/internal/schema"
	"nexus/internal/table"
	"nexus/internal/value"
)

// Encoder accumulates a binary encoding. The zero Encoder is ready to
// use.
type Encoder struct {
	buf []byte
}

// Bytes returns the accumulated encoding.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the current encoding size.
func (e *Encoder) Len() int { return len(e.buf) }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// U32 appends a big-endian uint32.
func (e *Encoder) U32(v uint32) {
	e.buf = append(e.buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// U64 appends a big-endian uint64.
func (e *Encoder) U64(v uint64) {
	e.buf = append(e.buf,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// I64 appends an int64 (two's complement).
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// F64 appends a float64 (IEEE-754 bits).
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool appends a bool byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Str appends a length-prefixed string.
func (e *Encoder) Str(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Raw appends bytes verbatim (caller framed them already).
func (e *Encoder) Raw(b []byte) { e.buf = append(e.buf, b...) }

// MaxDecodeDepth bounds how deeply plans and expressions may nest within
// one decoding (plan operators and expression nodes count alike). It is
// far beyond any plan a client builds and far below the depth at which
// the recursive decoders would exhaust the goroutine stack, which Go
// cannot recover from.
const MaxDecodeDepth = 10000

// ErrTooDeep reports a plan or expression nested past MaxDecodeDepth.
var ErrTooDeep = errors.New("wire: nesting too deep")

// Decoder consumes a binary encoding with a sticky error: after the first
// malformed read every subsequent read returns zero values, and Err
// reports the failure — callers check once at the end.
type Decoder struct {
	buf   []byte
	off   int
	err   error
	depth int // current plan/expression nesting, bounded by MaxDecodeDepth
}

// NewDecoder wraps a byte string for decoding.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the first decoding error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail(op string) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: truncated input reading %s at offset %d", op, d.off)
	}
}

// enter records one more level of plan or expression nesting. Past
// MaxDecodeDepth it fails the decoder with ErrTooDeep and returns false;
// every enter that returns true is paired with a leave.
func (d *Decoder) enter() bool {
	if d.depth >= MaxDecodeDepth {
		if d.err == nil {
			d.err = fmt.Errorf("%w: more than %d nested plan operators and expressions", ErrTooDeep, MaxDecodeDepth)
		}
		return false
	}
	d.depth++
	return true
}

// leave ends one level of nesting entered with enter.
func (d *Decoder) leave() { d.depth-- }

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	if d.err != nil || d.off+1 > len(d.buf) {
		d.fail("u8")
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

// U32 reads a big-endian uint32.
func (d *Decoder) U32() uint32 {
	if d.err != nil || d.off+4 > len(d.buf) {
		d.fail("u32")
		return 0
	}
	b := d.buf[d.off:]
	d.off += 4
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// U64 reads a big-endian uint64.
func (d *Decoder) U64() uint64 {
	if d.err != nil || d.off+8 > len(d.buf) {
		d.fail("u64")
		return 0
	}
	b := d.buf[d.off:]
	d.off += 8
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
}

// I64 reads an int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// F64 reads a float64.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads a bool byte.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// RawN reads n bytes verbatim; the returned slice aliases the input.
func (d *Decoder) RawN(n int) []byte {
	if d.err != nil || n < 0 || d.off+n > len(d.buf) {
		d.fail("raw")
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string {
	n := int(d.U32())
	if d.err != nil || n < 0 || d.off+n > len(d.buf) {
		d.fail("string")
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

// ---------------------------------------------------------------------------
// Values

// PutValue encodes a value.
func PutValue(e *Encoder, v value.Value) {
	e.U8(uint8(v.Kind()))
	switch v.Kind() {
	case value.KindNull:
	case value.KindBool:
		e.Bool(v.Bool())
	case value.KindInt64:
		e.I64(v.Int())
	case value.KindFloat64:
		e.F64(v.Float())
	case value.KindString:
		e.Str(v.Str())
	}
}

// GetValue decodes a value.
func GetValue(d *Decoder) value.Value {
	k := value.Kind(d.U8())
	switch k {
	case value.KindNull:
		return value.Null
	case value.KindBool:
		return value.NewBool(d.Bool())
	case value.KindInt64:
		return value.NewInt(d.I64())
	case value.KindFloat64:
		return value.NewFloat(d.F64())
	case value.KindString:
		return value.NewString(d.Str())
	}
	if d.err == nil {
		d.err = fmt.Errorf("wire: bad value kind %d", k)
	}
	return value.Null
}

// ---------------------------------------------------------------------------
// Schemas

// PutSchema encodes a schema.
func PutSchema(e *Encoder, s schema.Schema) {
	e.U32(uint32(s.Len()))
	for i := 0; i < s.Len(); i++ {
		a := s.At(i)
		e.Str(a.Name)
		e.U8(uint8(a.Kind))
		e.Bool(a.Dim)
	}
}

// GetSchema decodes a schema.
func GetSchema(d *Decoder) schema.Schema {
	n := int(d.U32())
	if d.err != nil || n > d.Remaining() { // each attr needs ≥ 6 bytes
		d.fail("schema")
		return schema.Schema{}
	}
	attrs := make([]schema.Attribute, 0, n)
	for i := 0; i < n; i++ {
		attrs = append(attrs, schema.Attribute{
			Name: d.Str(),
			Kind: value.Kind(d.U8()),
			Dim:  d.Bool(),
		})
	}
	if d.err != nil {
		return schema.Schema{}
	}
	s, err := schema.TryNew(attrs...)
	if err != nil {
		d.err = fmt.Errorf("wire: %w", err)
		return schema.Schema{}
	}
	return s
}

// ---------------------------------------------------------------------------
// Tables

// PutTable encodes a whole table column-wise.
func PutTable(e *Encoder, t *table.Table) {
	PutSchema(e, t.Schema())
	e.U32(uint32(t.NumRows()))
	for c := 0; c < t.NumCols(); c++ {
		col := t.Col(c)
		hasNulls := col.HasNulls()
		e.Bool(hasNulls)
		if hasNulls {
			for r := 0; r < t.NumRows(); r++ {
				e.Bool(!col.IsNull(r))
			}
		}
		switch col.Kind() {
		case value.KindBool:
			for _, v := range col.Bools() {
				e.Bool(v)
			}
		case value.KindInt64:
			for _, v := range col.Ints() {
				e.I64(v)
			}
		case value.KindFloat64:
			for _, v := range col.Floats() {
				e.F64(v)
			}
		case value.KindString:
			for _, v := range col.Strs() {
				e.Str(v)
			}
		}
	}
}

// GetTable decodes a table.
func GetTable(d *Decoder) *table.Table {
	sch := GetSchema(d)
	if d.err != nil {
		return nil
	}
	rows := int(d.U32())
	if d.err != nil || rows > d.Remaining()+1 { // loose sanity bound
		d.fail("table rows")
		return nil
	}
	cols := make([]*table.Column, sch.Len())
	for c := 0; c < sch.Len(); c++ {
		hasNulls := d.Bool()
		var valid []bool
		if hasNulls {
			valid = make([]bool, rows)
			for r := 0; r < rows; r++ {
				valid[r] = d.Bool()
			}
		}
		var col *table.Column
		switch sch.At(c).Kind {
		case value.KindBool:
			vals := make([]bool, rows)
			for r := 0; r < rows; r++ {
				vals[r] = d.Bool()
			}
			col = table.BoolColumn(vals)
		case value.KindInt64:
			vals := make([]int64, rows)
			for r := 0; r < rows; r++ {
				vals[r] = d.I64()
			}
			col = table.IntColumn(vals)
		case value.KindFloat64:
			vals := make([]float64, rows)
			for r := 0; r < rows; r++ {
				vals[r] = d.F64()
			}
			col = table.FloatColumn(vals)
		case value.KindString:
			vals := make([]string, rows)
			for r := 0; r < rows; r++ {
				vals[r] = d.Str()
			}
			col = table.StringColumn(vals)
		default:
			d.err = fmt.Errorf("wire: bad column kind %v", sch.At(c).Kind)
			return nil
		}
		if valid != nil {
			col = col.WithValidity(valid)
		}
		cols[c] = col
	}
	if d.err != nil {
		return nil
	}
	t, err := table.New(sch, cols)
	if err != nil {
		d.err = fmt.Errorf("wire: %w", err)
		return nil
	}
	return t
}

// EncodeTable returns the byte encoding of a table.
func EncodeTable(t *table.Table) []byte {
	var e Encoder
	PutTable(&e, t)
	return e.Bytes()
}

// DecodeTable parses a table encoding.
func DecodeTable(b []byte) (*table.Table, error) {
	d := NewDecoder(b)
	t := GetTable(d)
	if d.Err() != nil {
		return nil, d.Err()
	}
	return t, nil
}
