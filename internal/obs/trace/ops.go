package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nexus/internal/obs"
)

// heatCap bounds the per-dataset/per-partition heat vec cardinality;
// past it, heat aggregates under "(other)".
const heatCap = 256

// OpsRegistry tracks every in-flight query, append, and subscription
// on a node: who (tenant), what (dataset, partition), how far (rows,
// bytes, credit, watermark lag), and which span it belongs to. It is
// the data behind /debug/ops, the sampled slow-op log, and the
// per-dataset heat counters a future rebalancer will consume.
type OpsRegistry struct {
	mu     sync.Mutex
	ops    map[uint64]*Op
	nextID atomic.Uint64

	slowNs atomic.Int64 // 0 = slow-op log off

	// Rate limit for slow-op lines: a small token bucket so a storm of
	// slow ops logs a sample, not a flood.
	slowMu     sync.Mutex
	slowTokens float64
	slowLast   time.Time
	slowOut    io.Writer // JSON lines; defaults to stderr
	slowDrops  atomic.Int64

	// Heat counters, capped so dataset churn cannot bloat /metrics.
	heatRows  *obs.CounterVec
	heatBytes *obs.CounterVec
	heatLag   *obs.HistogramVec
}

// NewOpsRegistry builds a registry wired to reg's heat vecs (obs.
// Default when reg is nil).
func NewOpsRegistry(reg *obs.Registry) *OpsRegistry {
	if reg == nil {
		reg = obs.Default
	}
	return &OpsRegistry{
		ops:     make(map[uint64]*Op),
		slowOut: os.Stderr,
		heatRows: reg.CounterVec("nexus_heat_rows_total",
			"Rows served per dataset partition (scan results and stream windows).",
			"dataset", "partition").Cap(heatCap),
		heatBytes: reg.CounterVec("nexus_heat_scan_bytes_total",
			"Bytes scanned from storage per dataset partition.",
			"dataset", "partition").Cap(heatCap),
		heatLag: reg.HistogramVec("nexus_heat_sub_lag_seconds",
			"Subscriber watermark lag behind wall clock, per dataset partition.",
			obs.LatencyBuckets(), "dataset", "partition").Cap(heatCap),
	}
}

// DefaultOps is the process-wide ops registry, wired to obs.Default
// lazily so importing this package does not register heat metrics in
// processes that never track ops.
var (
	defaultOps     *OpsRegistry
	defaultOpsOnce sync.Once
)

// Ops returns the process-wide ops registry.
func Ops() *OpsRegistry {
	defaultOpsOnce.Do(func() { defaultOps = NewOpsRegistry(obs.Default) })
	return defaultOps
}

// SetSlowOpThreshold turns the slow-op log on for ops that run at
// least d (0 disables).
func (r *OpsRegistry) SetSlowOpThreshold(d time.Duration) {
	if r != nil {
		r.slowNs.Store(int64(d))
	}
}

// SlowOpThreshold returns the active threshold (0 = off).
func (r *OpsRegistry) SlowOpThreshold() time.Duration {
	if r == nil {
		return 0
	}
	return time.Duration(r.slowNs.Load())
}

// SetSlowOpOutput redirects slow-op JSON lines (tests).
func (r *OpsRegistry) SetSlowOpOutput(w io.Writer) {
	r.slowMu.Lock()
	r.slowOut = w
	r.slowMu.Unlock()
}

// Op is one in-flight operation. The counter fields are atomics so
// the hot emit path updates them without the registry lock.
type Op struct {
	reg *OpsRegistry

	ID        uint64
	Kind      string // "query" | "subscription" | "append"
	Tenant    string
	Dataset   string
	Partition int32 // -1 when unpartitioned
	TraceID   string
	SpanID    SpanID
	Started   time.Time

	rows       atomic.Int64
	bytes      atomic.Int64
	credit     atomic.Int64
	watermark  atomic.Int64 // raw event-time watermark
	haveWM     atomic.Bool
	wmAdvanced atomic.Int64 // unix nanos of the last watermark advance

	partLabel string // pre-rendered partition label for heat vecs
	heatRows  *obs.Counter
	heatBytes *obs.Counter
	heatLag   *obs.Histogram
}

// Begin registers an in-flight op. Safe on a nil registry (returns a
// nil Op whose methods no-op).
func (r *OpsRegistry) Begin(kind, tenant, dataset string, partition int32, ctx Context) *Op {
	if r == nil {
		return nil
	}
	ds := dataset
	if ds == "" {
		ds = "(none)"
	}
	part := "-"
	if partition >= 0 {
		part = fmt.Sprintf("%d", partition)
	}
	op := &Op{
		reg:       r,
		ID:        r.nextID.Add(1),
		Kind:      kind,
		Tenant:    tenant,
		Dataset:   ds,
		Partition: partition,
		SpanID:    ctx.SpanID,
		Started:   time.Now(),
		partLabel: part,
		heatRows:  r.heatRows.With(ds, part),
		heatBytes: r.heatBytes.With(ds, part),
		heatLag:   r.heatLag.With(ds, part),
	}
	if ctx.Valid() {
		op.TraceID = ctx.TraceID.String()
	}
	op.credit.Store(-1)
	r.mu.Lock()
	r.ops[op.ID] = op
	r.mu.Unlock()
	return op
}

// AddRows notes rows delivered to the client and feeds dataset heat.
func (o *Op) AddRows(n int64) {
	if o == nil || n <= 0 {
		return
	}
	o.rows.Add(n)
	o.heatRows.Add(n)
}

// AddBytes notes bytes scanned or shipped and feeds dataset heat.
func (o *Op) AddBytes(n int64) {
	if o == nil || n <= 0 {
		return
	}
	o.bytes.Add(n)
	o.heatBytes.Add(n)
}

// SetCredit publishes the subscription's current credit window
// (-1 = not credit-controlled).
func (o *Op) SetCredit(n int64) {
	if o != nil {
		o.credit.Store(n)
	}
}

// SetWatermark publishes the subscription's latest event-time
// watermark. Watermarks are domain time (whatever the stream's time
// column holds), so "lag" is measured as staleness: wall time since
// the watermark last advanced. Each advance feeds the inter-advance
// gap into the per-dataset lag histogram — a subscriber whose
// watermark advances rarely is a lagging subscriber.
func (o *Op) SetWatermark(mark int64) {
	if o == nil {
		return
	}
	now := time.Now().UnixNano()
	if o.haveWM.CompareAndSwap(false, true) {
		o.watermark.Store(mark)
		o.wmAdvanced.Store(now)
		return
	}
	if o.watermark.Swap(mark) != mark {
		prev := o.wmAdvanced.Swap(now)
		if prev > 0 {
			o.heatLag.Observe(float64(now-prev) / 1e9)
		}
	}
}

// Context returns the op's trace context (zero when untraced).
func (o *Op) Context() Context {
	if o == nil || o.TraceID == "" {
		return Context{}
	}
	id, ok := ParseTraceID(o.TraceID)
	if !ok {
		return Context{}
	}
	return Context{TraceID: id, SpanID: o.SpanID}
}

// End removes the op from the registry and, when it ran past the
// slow-op threshold, emits one rate-limited JSON line.
func (o *Op) End(err error) {
	if o == nil {
		return
	}
	o.reg.mu.Lock()
	delete(o.reg.ops, o.ID)
	o.reg.mu.Unlock()
	dur := time.Since(o.Started)
	if thr := o.reg.slowNs.Load(); thr > 0 && int64(dur) >= thr {
		o.reg.logSlow(o, dur, err)
	}
}

// slowOpLine is the JSON-lines schema of the slow-op log.
type slowOpLine struct {
	TS         time.Time `json:"ts"`
	Kind       string    `json:"kind"`
	Tenant     string    `json:"tenant,omitempty"`
	Dataset    string    `json:"dataset"`
	Partition  int32     `json:"partition"`
	DurationMs float64   `json:"duration_ms"`
	Rows       int64     `json:"rows"`
	Bytes      int64     `json:"bytes"`
	TraceID    string    `json:"trace_id,omitempty"`
	Error      string    `json:"error,omitempty"`
	Dropped    int64     `json:"dropped,omitempty"` // lines suppressed since the last emit
}

// slowOp token bucket: at most ~1 line/sec sustained, bursts of 10.
const (
	slowBurst = 10.0
	slowRate  = 1.0 // tokens per second
)

func (r *OpsRegistry) logSlow(o *Op, dur time.Duration, err error) {
	r.slowMu.Lock()
	now := time.Now()
	if r.slowLast.IsZero() {
		r.slowTokens = slowBurst
	} else {
		r.slowTokens += now.Sub(r.slowLast).Seconds() * slowRate
		if r.slowTokens > slowBurst {
			r.slowTokens = slowBurst
		}
	}
	r.slowLast = now
	if r.slowTokens < 1 {
		r.slowMu.Unlock()
		r.slowDrops.Add(1)
		return
	}
	r.slowTokens--
	out := r.slowOut
	r.slowMu.Unlock()

	line := slowOpLine{
		TS:         now,
		Kind:       o.Kind,
		Tenant:     o.Tenant,
		Dataset:    o.Dataset,
		Partition:  o.Partition,
		DurationMs: float64(dur) / float64(time.Millisecond),
		Rows:       o.rows.Load(),
		Bytes:      o.bytes.Load(),
		TraceID:    o.TraceID,
		Dropped:    r.slowDrops.Swap(0),
	}
	if err != nil {
		line.Error = err.Error()
	}
	if b, e := json.Marshal(line); e == nil {
		// Ops finish concurrently and the output need not be safe for
		// concurrent use: one line at a time.
		r.slowMu.Lock()
		_, _ = fmt.Fprintf(out, "%s\n", b)
		r.slowMu.Unlock()
	}
}

// OpInfo is one in-flight op in the /debug/ops JSON listing.
type OpInfo struct {
	ID         uint64    `json:"id"`
	Kind       string    `json:"kind"`
	Tenant     string    `json:"tenant,omitempty"`
	Dataset    string    `json:"dataset"`
	Partition  int32     `json:"partition"`
	Started    time.Time `json:"started"`
	DurationMs float64   `json:"duration_ms"`
	Rows       int64     `json:"rows"`
	Bytes      int64     `json:"bytes"`
	Credit     int64     `json:"credit"` // -1 = not credit-controlled
	Watermark  *int64    `json:"watermark,omitempty"`
	WMStaleMs  float64   `json:"watermark_stale_ms,omitempty"`
	TraceID    string    `json:"trace_id,omitempty"`
	SpanID     SpanID    `json:"span_id,omitempty"`
}

// Snapshot lists every in-flight op, oldest first.
func (r *OpsRegistry) Snapshot() []OpInfo {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	ops := make([]*Op, 0, len(r.ops))
	for _, o := range r.ops {
		ops = append(ops, o)
	}
	r.mu.Unlock()
	sort.Slice(ops, func(i, j int) bool { return ops[i].ID < ops[j].ID })
	now := time.Now()
	out := make([]OpInfo, 0, len(ops))
	for _, o := range ops {
		info := OpInfo{
			ID:         o.ID,
			Kind:       o.Kind,
			Tenant:     o.Tenant,
			Dataset:    o.Dataset,
			Partition:  o.Partition,
			Started:    o.Started,
			DurationMs: float64(now.Sub(o.Started)) / float64(time.Millisecond),
			Rows:       o.rows.Load(),
			Bytes:      o.bytes.Load(),
			Credit:     o.credit.Load(),
			TraceID:    o.TraceID,
			SpanID:     o.SpanID,
		}
		if o.haveWM.Load() {
			wm := o.watermark.Load()
			info.Watermark = &wm
			if adv := o.wmAdvanced.Load(); adv > 0 {
				info.WMStaleMs = float64(now.UnixNano()-adv) / 1e6
			}
		}
		out = append(out, info)
	}
	return out
}
