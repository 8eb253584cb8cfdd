package nexus

import (
	"context"
	"fmt"
	"sync"

	"nexus/internal/federation"
	"nexus/internal/obs/trace"
	"nexus/internal/stream"
	"nexus/internal/table"
	"nexus/internal/wire"
)

// Federated data in motion: the same streaming query that runs in
// process ships its compiled plan to remote providers, which host the
// long-running pipeline and push watermarked window results back under
// credit-based flow control. PartitionBy splits the stream across N
// providers by key hash; the coordinator merges their results in
// watermark order. A subscription can detach with per-partition resume
// tokens and pick up later — on the same providers or others — and a
// Durable subscription additionally checkpoints its state on the
// server, so even a SIGKILLed server resumes it where it left off.

// PartitionBy names the key column used to split the stream across
// providers when a federated subscription names more than one. Rows
// route by hash of the key (int64 keys hash their raw bits — the same
// fast path the join and group kernels prefer).
func (q *StreamQuery) PartitionBy(key string) *StreamQuery {
	nq := q.derive(q.b)
	nq.partKey = key
	return nq
}

// Durable names a server-side checkpoint for the subscription. A
// provider hosting the stream from a durable data directory
// (nexus-server -data-dir) persists the pipeline's state under this
// name on a timer and on disconnect; re-subscribing with the same name
// — even against a restarted server — resumes from the last
// checkpoint instead of replaying from scratch. Multi-partition
// subscriptions checkpoint per partition under derived names.
func (q *StreamQuery) Durable(name string) *StreamQuery {
	nq := q.derive(q.b)
	nq.durable = name
	return nq
}

// ResumeToken is one partition's resume position, surfaced by
// RemoteStream.Detach: the pipeline's portable window state plus the
// count of source rows it consumed. Pass the full token set to
// ResumeFrom to continue the stream — with the same providers or new
// ones (state migrates over the wire).
type ResumeToken struct {
	// Provider hosted the partition when the token was taken.
	Provider string
	// Partition is the token's index in the original provider list.
	Partition int

	state *stream.State
}

// Offset returns how many source rows the partition's pipeline had
// consumed: the per-partition resume offset. Dataset replays skip this
// many rows server-side on resume; push-mode sources skip them
// publisher-side.
func (t ResumeToken) Offset() int64 {
	if t.state == nil {
		return 0
	}
	return t.state.Events
}

// ResumeFrom continues a detached stream: token i resumes partition i.
// The token count must match the provider count of the subscribe call.
// Push-mode sources must replay deterministically from the beginning
// (ReplayTable, GenerateSource, StreamScan): the publisher re-routes
// rows and skips each partition's already-consumed prefix.
func (q *StreamQuery) ResumeFrom(tokens []ResumeToken) *StreamQuery {
	nq := q.derive(q.b)
	nq.resume = append([]ResumeToken(nil), tokens...)
	return nq
}

// remotePublishBatch caps rows per published event batch.
const remotePublishBatch = 256

// RemoteStream is a running federated subscription that can end two
// ways: Wait blocks to natural end-of-stream; Detach stops the remote
// pipelines and returns one resume token per partition.
type RemoteStream struct {
	detachOnce sync.Once
	detachCh   chan struct{}
	done       chan struct{}
	// doDetach runs the per-partition detach handshakes; Detach spawns
	// it directly (not via the context watcher, which may already have
	// exited on cancellation), so Detach can never deadlock.
	doDetach func()

	sp *trace.Span // stream span; nil untraced

	mu     sync.Mutex
	stats  *StreamStats
	tokens []ResumeToken
	err    error
}

// TraceID returns the stream's trace id as lowercase hex ("" when the
// query was not marked with Trace).
func (r *RemoteStream) TraceID() string {
	if r.sp == nil {
		return ""
	}
	return r.sp.TraceID().String()
}

// terminalErr returns the stream's terminal error so far.
func (r *RemoteStream) terminalErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Wait blocks until the stream completes and returns its summed stats.
func (r *RemoteStream) Wait() (*StreamStats, error) {
	<-r.done
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats, r.err
}

// Detach stops every partition's pipeline, delivers any results that
// were already in flight to the subscriber callback, and returns the
// per-partition resume tokens. Detaching an already-finished stream
// returns its terminal error and no tokens.
func (r *RemoteStream) Detach() ([]ResumeToken, error) {
	r.detachOnce.Do(func() {
		close(r.detachCh)
		go r.doDetach()
	})
	<-r.done
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.tokens == nil && r.err == nil {
		return nil, fmt.Errorf("nexus: stream already completed before detach")
	}
	return r.tokens, r.err
}

// SubscribeRemote runs the stream query on the named providers and
// delivers every result table to fn, blocking to completion. With one
// provider the whole pipeline runs there; with several, PartitionBy is
// required and each provider runs the pipeline over its key partition,
// with windowed results merged in watermark order (stateless results
// arrive in arrival order). Queries built with StreamScan replay their
// dataset on the serving provider; every other source streams from
// this process to the providers over the wire.
func (q *StreamQuery) SubscribeRemote(ctx context.Context, providers []string, fn func(*Table) error) (*StreamStats, error) {
	rs, err := q.SubscribeRemoteDetachable(ctx, providers, fn)
	if err != nil {
		return nil, err
	}
	return rs.Wait()
}

// SubscribeRemoteDetachable is SubscribeRemote running in the
// background: it returns as soon as every subscription is established.
// Use Wait for completion or Detach for per-partition resume tokens.
func (q *StreamQuery) SubscribeRemoteDetachable(ctx context.Context, providers []string, fn func(*Table) error) (*RemoteStream, error) {
	if err := q.b.Err(); err != nil {
		return nil, err
	}
	sp, err := q.b.Spec()
	if err != nil {
		return nil, err
	}
	n := len(providers)
	if n == 0 {
		return nil, fmt.Errorf("nexus: SubscribeRemote needs at least one provider")
	}
	if n > 1 && q.partKey == "" {
		return nil, fmt.Errorf("nexus: a subscription across %d providers needs PartitionBy", n)
	}
	if n > 1 && sp.Windowed {
		// A group must never span partitions: each provider holds only its
		// share of the rows, so a group split across two providers would
		// come back as two rows of partial aggregates. Requiring the
		// partition key among the group keys makes groups partition-local.
		ok := false
		for _, k := range sp.Keys {
			if k == q.partKey {
				ok = true
				break
			}
		}
		if !ok {
			return nil, fmt.Errorf("nexus: partition key %q must be one of the GroupBy keys %v — otherwise groups span partitions and aggregates come back partial", q.partKey, sp.Keys)
		}
	}
	if q.resume != nil && len(q.resume) != n {
		return nil, fmt.Errorf("nexus: %d resume tokens for %d providers", len(q.resume), n)
	}
	src := q.b.Source()
	keyIdx := -1
	if q.partKey != "" {
		keyIdx = src.Schema().IndexOf(q.partKey)
		if keyIdx < 0 {
			return nil, fmt.Errorf("nexus: no partition key column %q in %v", q.partKey, src.Schema())
		}
	}

	// A traced stream gets a span covering its whole life; each
	// partition's subscribe carries its context so every server's
	// subscription spans parent here.
	var tsp *trace.Span
	if q.traced {
		if q.s.root != nil {
			tsp = q.s.root.Child("stream")
		} else {
			tsp = trace.Default.NewRoot("stream")
		}
		tsp.Set(trace.Int("partitions", int64(n)))
	}

	// Open one subscription per provider.
	subs := make([]*federation.Subscription, 0, n)
	closeAll := func() {
		for _, s := range subs {
			s.Close()
		}
	}
	skips := make([]int64, n) // publisher-side resume offsets (push mode)
	for i, name := range providers {
		tr, err := q.s.streamTransport(name)
		if err != nil {
			closeAll()
			return nil, err
		}
		sub := wire.StreamSub{Spec: sp, PartIdx: uint32(i), PartCnt: uint32(n), Trace: toWireTrace(tsp.Context())}
		if n > 1 {
			sub.PartKey = q.partKey
		}
		if q.durable != "" {
			sub.Durable = q.durable
			if n > 1 {
				sub.Durable = fmt.Sprintf("%s/p%d", q.durable, i)
			}
		}
		if q.resume != nil {
			sub.Resume = q.resume[i].state
			skips[i] = q.resume[i].Offset()
		}
		if q.dataset != "" {
			sub.SourceKind = wire.StreamSrcDataset
			sub.Dataset = q.dataset
			sub.TimeCol = q.timeCol
		} else {
			sub.SourceKind = wire.StreamSrcPush
			sub.TimeCol = src.TimeCol()
			sub.SrcSchema = src.Schema()
		}
		s, err := tr.Subscribe(sub)
		if err != nil {
			closeAll()
			return nil, err
		}
		subs = append(subs, s)
	}

	rs := &RemoteStream{detachCh: make(chan struct{}), done: make(chan struct{}), sp: tsp}

	// Push-mode queries need a publisher moving local events upstream.
	var wg sync.WaitGroup
	var pubErr error
	if q.dataset == "" {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pubErr = publishRows(ctx, src, subs, keyIdx, skips)
		}()
	}

	// Detach executor: stops each partition's pipeline and collects its
	// state. Detach spawns it directly, so it runs even if the context
	// watcher below has already exited on a cancellation — the merge
	// loop sees the partitions end either way.
	type detachRes struct {
		state   *stream.State
		pending []federation.SubBatch
		err     error
	}
	detachResults := make([]detachRes, n)
	detachDone := make(chan struct{}) // closed once every handshake finished
	rs.doDetach = func() {
		var dwg sync.WaitGroup
		for i, s := range subs {
			dwg.Add(1)
			go func(i int, s *federation.Subscription) {
				defer dwg.Done()
				st, pending, err := s.Detach()
				detachResults[i] = detachRes{state: st, pending: pending, err: err}
			}(i, s)
		}
		dwg.Wait()
		close(detachDone)
	}

	// Watcher: a canceled context tears everything down.
	watchDone := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			closeAll()
		case <-watchDone:
		}
	}()

	go func() {
		defer close(watchDone)
		defer close(rs.done)
		// The stream span ends with the stream; every finish path below
		// sets the terminal error before this goroutine returns.
		defer func() { tsp.End(rs.terminalErr()) }()

		emit := func(t *table.Table) error { return fn(wrapTable(t)) }
		var stats stream.Stats
		var runErr error
		switch {
		case n == 1:
			s := subs[0]
			for b := range s.Batches() {
				if b.Table == nil {
					continue
				}
				if err := emit(b.Table); err != nil {
					_ = s.Cancel()
					wg.Wait()
					rs.fail(err)
					return
				}
			}
			st, err := s.Wait()
			if err != nil && s.State() == nil {
				wg.Wait()
				rs.fail(err)
				return
			}
			if st != nil {
				stats = *st
			}
		case sp.Windowed:
			stats, runErr = federation.MergeWindows(subs, emit)
		default:
			stats, runErr = federation.MergeArrival(subs, emit)
		}
		wg.Wait()

		detached := false
		select {
		case <-rs.detachCh:
			// Detach owns the terminal handshake; wait for it to collect
			// every partition's state.
			<-detachDone
			detached = true
		default:
		}

		if detached {
			// In-flight results the pipelines emitted before stopping are
			// not represented in the resume state — deliver them now, in
			// partition order, so nothing is lost across the handoff.
			tokens := make([]ResumeToken, n)
			var firstErr error
			for i := range detachResults {
				res := detachResults[i]
				if res.err != nil && firstErr == nil {
					firstErr = res.err
				}
				for _, b := range res.pending {
					if b.Table == nil {
						continue
					}
					if err := emit(b.Table); err != nil && firstErr == nil {
						firstErr = err
					}
				}
				tokens[i] = ResumeToken{Provider: providers[i], Partition: i, state: res.state}
			}
			rs.mu.Lock()
			rs.stats = &stats
			rs.tokens = tokens
			rs.err = firstErr
			rs.mu.Unlock()
			return
		}

		switch {
		case runErr != nil:
			rs.finish(&stats, runErr)
		case pubErr != nil:
			rs.finish(&stats, pubErr)
		case ctx.Err() != nil:
			rs.finish(&stats, ctx.Err())
		default:
			rs.finish(&stats, nil)
		}
	}()
	return rs, nil
}

func (r *RemoteStream) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
}

func (r *RemoteStream) finish(stats *StreamStats, err error) {
	r.mu.Lock()
	r.stats = stats
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
}

// CollectRemote is SubscribeRemote accumulating every emitted row into
// one table.
func (q *StreamQuery) CollectRemote(ctx context.Context, providers ...string) (*Table, error) {
	sch, err := q.b.OutputSchema()
	if err != nil {
		return nil, err
	}
	sink := stream.NewCollect(sch)
	var mu sync.Mutex
	_, err = q.SubscribeRemote(ctx, providers, func(t *Table) error {
		mu.Lock()
		defer mu.Unlock()
		return sink.Emit(t.t)
	})
	if err != nil {
		return nil, err
	}
	t, err := sink.Table()
	if err != nil {
		return nil, err
	}
	return wrapTable(t), nil
}

// publishRows drains the local source, routes each row to its key
// partition, and publishes micro-batches upstream, ending every
// partition's input when the source completes. skips[p] rows routed to
// partition p are dropped first — the partition's pipeline consumed
// them before the resume point. The source is opened on a child context
// cancelled on return, so a publisher that stops early (a failed
// Publish) also stops the source's producer.
func publishRows(ctx context.Context, src stream.Source, subs []*federation.Subscription, keyIdx int, skips []int64) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer stream.ReleaseSource(src)
	rows := src.Open(ctx)
	n := len(subs)
	sch := src.Schema()
	skip := make([]int64, n)
	copy(skip, skips)
	builders := make([]*table.Builder, n)
	for i := range builders {
		builders[i] = table.NewBuilder(sch, 0)
	}
	flush := func(i int) error {
		if builders[i].Len() == 0 {
			return nil
		}
		t := builders[i].Build()
		builders[i] = table.NewBuilder(sch, 0)
		return subs[i].Publish(t)
	}
drain:
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case row, ok := <-rows:
			if !ok {
				break drain
			}
			p := 0
			if n > 1 && keyIdx >= 0 && keyIdx < len(row) {
				p = int(stream.PartitionOf(row[keyIdx], uint32(n)))
			}
			if skip[p] > 0 {
				skip[p]--
				continue
			}
			if err := builders[p].Append(row...); err != nil {
				return err
			}
			if builders[p].Len() >= remotePublishBatch {
				if err := flush(p); err != nil {
					return err
				}
			}
		}
	}
	if err := src.Err(); err != nil {
		return err
	}
	for i := range subs {
		if err := flush(i); err != nil {
			return err
		}
		if err := subs[i].EndInput(); err != nil {
			return err
		}
	}
	return nil
}
