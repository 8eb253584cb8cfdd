// Streaming wire format: subscriptions, result batches, watermarks,
// credits, and the WindowState codec that ships per-window partial
// aggregates between servers — the piece that makes a long-running
// stream a movable object rather than a process-bound one.
package wire

import (
	"fmt"
	"math"

	"nexus/internal/core"
	"nexus/internal/engines/exec"
	"nexus/internal/schema"
	"nexus/internal/stream"
	"nexus/internal/table"
)

// Stream source kinds inside a subscription.
const (
	// StreamSrcDataset replays a dataset stored on the serving provider
	// (optionally filtered to one key partition server-side).
	StreamSrcDataset uint8 = 1
	// StreamSrcPush reads event batches the subscriber publishes over the
	// same connection (MsgStreamPublish).
	StreamSrcPush uint8 = 2
)

// StreamClose modes.
const (
	// CloseEndInput ends a push source's input; the pipeline drains,
	// flushes its final windows and completes normally.
	CloseEndInput uint8 = 1
	// CloseCancel aborts the pipeline; no state is returned.
	CloseCancel uint8 = 2
	// CloseDetach aborts the pipeline and asks for its window state, so
	// the subscriber can resume here or on another provider.
	CloseDetach uint8 = 3
)

// StreamSub describes one subscription request.
type StreamSub struct {
	ID         uint64
	SourceKind uint8

	// Dataset + TimeCol name the replayed dataset (StreamSrcDataset);
	// SrcSchema + TimeCol describe published batches (StreamSrcPush).
	Dataset   string
	TimeCol   string
	SrcSchema schema.Schema

	// Spec is the pipeline: plans, window, aggregates, batch size,
	// lateness.
	Spec stream.Spec

	// PartKey/PartIdx/PartCnt restrict a dataset replay to one key
	// partition (PartCnt > 1). The hash is stream.PartitionOf on both
	// sides of the wire.
	PartKey string
	PartIdx uint32
	PartCnt uint32

	// Credit is the initial number of result batches the server may send
	// before waiting for MsgCredit.
	Credit uint32

	// Resume, when non-nil, restarts the stream from a prior run's state:
	// open windows are restored and a dataset replay skips Resume.Events
	// rows.
	Resume *stream.State

	// Durable names a server-side checkpoint for this subscription. A
	// server with a data directory periodically persists the pipeline's
	// state under this key; a re-subscription carrying the same key (and
	// no explicit Resume) picks up from the last checkpoint — this is
	// how a killed server's hosted streams resume where they left off.
	Durable string

	// Trace carries the subscriber's trace context (zero = untraced).
	// It is the LAST encoded field, so peers that predate it ignore it
	// — and it survives a failover redial, which is what stitches the
	// replica's spans into the client's original trace.
	Trace TraceCtx
}

// EncodeSubscribeStream builds a MsgSubscribeStream payload.
func EncodeSubscribeStream(s StreamSub) []byte {
	var e Encoder
	e.U64(s.ID)
	e.U8(s.SourceKind)
	e.Str(s.Dataset)
	e.Str(s.TimeCol)
	PutSchema(&e, s.SrcSchema)
	putSpec(&e, s.Spec)
	e.Str(s.PartKey)
	e.U32(s.PartIdx)
	e.U32(s.PartCnt)
	e.U32(s.Credit)
	if s.Resume == nil {
		e.Bool(false)
	} else {
		e.Bool(true)
		PutWindowState(&e, s.Resume)
	}
	e.Str(s.Durable)
	PutTraceCtx(&e, s.Trace)
	return e.Bytes()
}

// DecodeSubscribeStream parses a MsgSubscribeStream payload.
func DecodeSubscribeStream(b []byte) (StreamSub, error) {
	d := NewDecoder(b)
	var s StreamSub
	s.ID = d.U64()
	s.SourceKind = d.U8()
	s.Dataset = d.Str()
	s.TimeCol = d.Str()
	s.SrcSchema = GetSchema(d)
	sp, err := getSpec(d)
	if err != nil {
		return s, err
	}
	s.Spec = sp
	s.PartKey = d.Str()
	s.PartIdx = d.U32()
	s.PartCnt = d.U32()
	s.Credit = d.U32()
	if d.Bool() {
		st := GetWindowState(d)
		if d.Err() == nil {
			s.Resume = st
		}
	}
	s.Durable = d.Str()
	s.Trace = GetTraceCtx(d)
	if d.Err() != nil {
		return s, d.Err()
	}
	switch s.SourceKind {
	case StreamSrcDataset, StreamSrcPush:
	default:
		return s, fmt.Errorf("wire: bad stream source kind %d", s.SourceKind)
	}
	return s, nil
}

// putSpec encodes a pipeline spec.
func putSpec(e *Encoder, sp stream.Spec) {
	PutPlan(e, sp.Pre)
	if sp.Post == nil {
		e.Bool(false)
	} else {
		e.Bool(true)
		PutPlan(e, sp.Post)
	}
	e.Bool(sp.Windowed)
	e.U8(uint8(sp.Win.Kind))
	e.I64(sp.Win.Size)
	e.I64(sp.Win.Slide)
	putStrs(e, sp.Keys)
	putAggs(e, sp.Aggs)
	e.I64(int64(sp.BatchSize))
	e.I64(sp.Lateness)
}

// getSpec decodes a pipeline spec, rebuilding plans through the core
// constructors (schema inference re-runs on the receiving server). Its
// plans decode through GetPlan under the decoder's MaxDecodeDepth bound.
func getSpec(d *Decoder) (stream.Spec, error) {
	var sp stream.Spec
	pre, err := GetPlan(d)
	if err != nil {
		return sp, err
	}
	sp.Pre = pre
	if d.Bool() {
		post, err := GetPlan(d)
		if err != nil {
			return sp, err
		}
		sp.Post = post
	}
	sp.Windowed = d.Bool()
	sp.Win = core.StreamWindow{Kind: core.StreamWindowKind(d.U8()), Size: d.I64(), Slide: d.I64()}
	sp.Keys = getStrs(d)
	sp.Aggs = getAggs(d)
	sp.BatchSize = int(d.I64())
	sp.Lateness = d.I64()
	return sp, d.Err()
}

// EncodeSubAck builds a MsgSubAck payload: the accepted subscription's
// output schema.
func EncodeSubAck(id uint64, outSchema schema.Schema) []byte {
	var e Encoder
	e.U64(id)
	PutSchema(&e, outSchema)
	return e.Bytes()
}

// DecodeSubAck parses a MsgSubAck payload.
func DecodeSubAck(b []byte) (uint64, schema.Schema, error) {
	d := NewDecoder(b)
	id := d.U64()
	sch := GetSchema(d)
	return id, sch, d.Err()
}

// EncodeStreamBatch builds a MsgStreamBatch payload: one emitted result
// table, its sequence number and the watermark in force when it was
// emitted (math.MinInt64 before the first event).
func EncodeStreamBatch(id, seq uint64, watermark int64, t *table.Table) []byte {
	var e Encoder
	e.U64(id)
	e.U64(seq)
	e.I64(watermark)
	PutTable(&e, t)
	return e.Bytes()
}

// DecodeStreamBatch parses a MsgStreamBatch payload.
func DecodeStreamBatch(b []byte) (id, seq uint64, watermark int64, t *table.Table, err error) {
	d := NewDecoder(b)
	id = d.U64()
	seq = d.U64()
	watermark = d.I64()
	t = GetTable(d)
	if d.Err() != nil {
		return id, seq, watermark, nil, d.Err()
	}
	return id, seq, watermark, t, nil
}

// EncodeWatermark builds a MsgWatermark payload.
func EncodeWatermark(id uint64, mark int64) []byte {
	var e Encoder
	e.U64(id)
	e.I64(mark)
	return e.Bytes()
}

// DecodeWatermark parses a MsgWatermark payload.
func DecodeWatermark(b []byte) (uint64, int64, error) {
	d := NewDecoder(b)
	id := d.U64()
	mark := d.I64()
	return id, mark, d.Err()
}

// EncodeCredit builds a MsgCredit payload granting n more batches.
func EncodeCredit(id uint64, n uint32) []byte {
	var e Encoder
	e.U64(id)
	e.U32(n)
	return e.Bytes()
}

// DecodeCredit parses a MsgCredit payload.
func DecodeCredit(b []byte) (uint64, uint32, error) {
	d := NewDecoder(b)
	id := d.U64()
	n := d.U32()
	return id, n, d.Err()
}

// EncodeStreamPublish builds a MsgStreamPublish payload: one event batch
// pushed from the subscriber into a StreamSrcPush pipeline.
func EncodeStreamPublish(id uint64, t *table.Table) []byte {
	var e Encoder
	e.U64(id)
	PutTable(&e, t)
	return e.Bytes()
}

// DecodeStreamPublish parses a MsgStreamPublish payload.
func DecodeStreamPublish(b []byte) (uint64, *table.Table, error) {
	d := NewDecoder(b)
	id := d.U64()
	t := GetTable(d)
	if d.Err() != nil {
		return id, nil, d.Err()
	}
	return id, t, nil
}

// EncodeStreamClose builds a MsgStreamClose payload.
func EncodeStreamClose(id uint64, mode uint8) []byte {
	var e Encoder
	e.U64(id)
	e.U8(mode)
	return e.Bytes()
}

// DecodeStreamClose parses a MsgStreamClose payload.
func DecodeStreamClose(b []byte) (uint64, uint8, error) {
	d := NewDecoder(b)
	id := d.U64()
	mode := d.U8()
	if err := d.Err(); err != nil {
		return id, mode, err
	}
	switch mode {
	case CloseEndInput, CloseCancel, CloseDetach:
		return id, mode, nil
	}
	return id, mode, fmt.Errorf("wire: bad stream close mode %d", mode)
}

// EncodeStreamEnd builds a MsgStreamEnd payload: the pipeline's final
// statistics.
func EncodeStreamEnd(id uint64, st stream.Stats) []byte {
	var e Encoder
	e.U64(id)
	e.I64(st.Events)
	e.I64(st.Batches)
	e.I64(st.Windows)
	e.I64(st.Late)
	e.I64(st.OutRows)
	e.I64(st.Watermark)
	return e.Bytes()
}

// DecodeStreamEnd parses a MsgStreamEnd payload.
func DecodeStreamEnd(b []byte) (uint64, stream.Stats, error) {
	d := NewDecoder(b)
	id := d.U64()
	st := stream.Stats{
		Events:    d.I64(),
		Batches:   d.I64(),
		Windows:   d.I64(),
		Late:      d.I64(),
		OutRows:   d.I64(),
		Watermark: d.I64(),
	}
	return id, st, d.Err()
}

// ---------------------------------------------------------------------------
// WindowState

// PutWindowState encodes a pipeline's portable state: progress counters
// and every open window's per-group partial aggregates.
func PutWindowState(e *Encoder, st *stream.State) {
	e.I64(st.Events)
	e.I64(st.MaxTime)
	e.I64(st.Watermark)
	e.I64(st.Seq)
	e.U64(st.Epoch)
	e.U32(uint32(len(st.Windows)))
	for _, w := range st.Windows {
		e.I64(w.Start)
		e.I64(w.End)
		e.I64(w.Count)
		e.U32(uint32(len(w.Groups)))
		for _, g := range w.Groups {
			e.U32(uint32(len(g.Keys)))
			for _, k := range g.Keys {
				PutValue(e, k)
			}
			e.U32(uint32(len(g.Accs)))
			for _, a := range g.Accs {
				e.U8(uint8(a.Fn))
				e.I64(a.Count)
				e.I64(a.SumInt)
				e.F64(a.SumFloat)
				e.Bool(a.IsFloat)
				PutValue(e, a.MinMax)
				e.U32(uint32(len(a.Distinct)))
				for _, k := range a.Distinct {
					e.Str(k)
				}
			}
		}
	}
}

// GetWindowState decodes a pipeline state. Every count is bounded by the
// remaining input so corrupt frames fail instead of allocating.
func GetWindowState(d *Decoder) *stream.State {
	st := &stream.State{
		Events:    d.I64(),
		MaxTime:   d.I64(),
		Watermark: d.I64(),
		Seq:       d.I64(),
		Epoch:     d.U64(),
	}
	nw := int(d.U32())
	if d.err != nil || nw > d.Remaining() {
		d.fail("windowstate windows")
		return nil
	}
	for i := 0; i < nw; i++ {
		w := stream.WindowSnapshot{Start: d.I64(), End: d.I64(), Count: d.I64()}
		ng := int(d.U32())
		if d.err != nil || ng > d.Remaining() {
			d.fail("windowstate groups")
			return nil
		}
		for j := 0; j < ng; j++ {
			var g stream.GroupSnapshot
			nk := int(d.U32())
			if d.err != nil || nk > d.Remaining() {
				d.fail("windowstate keys")
				return nil
			}
			for k := 0; k < nk; k++ {
				g.Keys = append(g.Keys, GetValue(d))
			}
			na := int(d.U32())
			if d.err != nil || na > d.Remaining() {
				d.fail("windowstate accs")
				return nil
			}
			for k := 0; k < na; k++ {
				a := exec.AccSnapshot{
					Fn:       core.AggFunc(d.U8()),
					Count:    d.I64(),
					SumInt:   d.I64(),
					SumFloat: d.F64(),
					IsFloat:  d.Bool(),
					MinMax:   GetValue(d),
				}
				nd := int(d.U32())
				if d.err != nil || nd > d.Remaining() {
					d.fail("windowstate distinct")
					return nil
				}
				for m := 0; m < nd; m++ {
					a.Distinct = append(a.Distinct, d.Str())
				}
				g.Accs = append(g.Accs, a)
			}
			w.Groups = append(w.Groups, g)
		}
		st.Windows = append(st.Windows, w)
	}
	if d.err != nil {
		return nil
	}
	return st
}

// EncodeWindowState builds a MsgWindowState payload.
func EncodeWindowState(id uint64, st *stream.State) []byte {
	var e Encoder
	e.U64(id)
	if st == nil {
		st = &stream.State{MaxTime: math.MinInt64, Watermark: math.MinInt64}
	}
	PutWindowState(&e, st)
	return e.Bytes()
}

// DecodeWindowState parses a MsgWindowState payload.
func DecodeWindowState(b []byte) (uint64, *stream.State, error) {
	d := NewDecoder(b)
	id := d.U64()
	st := GetWindowState(d)
	if d.Err() != nil {
		return id, nil, d.Err()
	}
	return id, st, nil
}
