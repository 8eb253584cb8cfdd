package federation

import (
	"net"
	"testing"
	"time"

	"nexus/internal/engines/relational"
	"nexus/internal/netfault"
	"nexus/internal/obs/trace"
	"nexus/internal/server"
	"nexus/internal/stream"
	"nexus/internal/wire"
)

// netfaultServer starts a TCP server hosting the events dataset and
// returns its address.
func netfaultServer(t *testing.T) string {
	t.Helper()
	eng := relational.New("nf")
	if err := eng.Store("events", evTable(5, 400, 8)); err != nil {
		t.Fatal(err)
	}
	srv, err := server.Serve(eng, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Logf = func(string, ...any) {}
	t.Cleanup(srv.Close)
	return srv.Addr()
}

// netfaultSub builds a traced dataset subscription spec (tumbling
// windows over the shared events fixture — many output batches, so the
// client returns credit repeatedly and a write-side cut always lands).
func netfaultSub(t *testing.T, tc wire.TraceCtx) wire.StreamSub {
	t.Helper()
	sp, err := diffPipelines()[0].build(stream.NewReplay(evTable(5, 400, 8), "ts")).Spec()
	if err != nil {
		t.Fatal(err)
	}
	return wire.StreamSub{
		SourceKind: wire.StreamSrcDataset,
		Dataset:    "events", TimeCol: "ts",
		Spec:   sp,
		Credit: 1,
		Trace:  tc,
	}
}

// waitSubscribeSpan polls the local ring for this trace's
// client.subscribe span (the reader's deferred End races the output
// channel close, so the span can land just after Batches drains).
func waitSubscribeSpan(t *testing.T, id trace.TraceID) trace.SpanData {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var got []trace.SpanData
		for _, sd := range trace.Default.TraceSpans(id) {
			if sd.Name == "client.subscribe" {
				got = append(got, sd)
			}
		}
		if len(got) == 1 {
			return got[0]
		}
		if len(got) > 1 {
			t.Fatalf("client.subscribe recorded %d times — span leaked into the ring", len(got))
		}
		if time.Now().After(deadline) {
			t.Fatalf("client.subscribe span never closed; trace has %v", trace.Default.TraceSpans(id))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSubscribeTraceClosesOnSeveredTransport: a netfault cut mid-stream
// terminates the subscription AND closes its client span with error
// status — exactly once, parented under the caller's root, never left
// open or duplicated in the ring.
func TestSubscribeTraceClosesOnSeveredTransport(t *testing.T) {
	addr := netfaultServer(t)
	root := trace.Default.NewRoot("netfault.test")
	tc := traceToWire(root.Context())
	defer root.End(nil)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	faults := netfault.NewFaults(5)
	mx, err := newMux(faults.Wrap(conn), addr, DialOpts{})
	if err != nil {
		t.Fatalf("hello: %v", err)
	}
	t.Cleanup(mx.Close)
	sub, err := mx.Subscribe(netfaultSub(t, tc))
	if err != nil {
		t.Fatalf("subscribe handshake: %v", err)
	}
	// Sever on the next client write: the first credit return after a
	// delivered batch cuts the socket, so the reader's next frame fails.
	faults.CutAfter(1)

	batches := 0
	for b := range sub.Batches() {
		if b.Table != nil {
			batches++
		}
	}
	if sub.Err() == nil {
		t.Fatalf("subscription survived a severed transport (%d batches)", batches)
	}
	if faults.Cuts.Load() == 0 {
		t.Fatal("fault schedule never cut the connection")
	}

	sd := waitSubscribeSpan(t, root.Context().TraceID)
	if sd.Error == "" {
		t.Fatalf("client.subscribe closed without error status: %+v", sd)
	}
	if sd.ParentID != root.Context().SpanID {
		t.Fatalf("client.subscribe parent = %d, want root %d", sd.ParentID, root.Context().SpanID)
	}
	if sd.TraceID != root.Context().TraceID.String() {
		t.Fatalf("client.subscribe trace = %s, want %s", sd.TraceID, root.Context().TraceID)
	}
}

// TestSubscribeTraceClosesOnHandshakeCut: the cut landing on the
// subscribe frame itself — before any ack — still ends the span with
// error status via the handshake cleanup path.
func TestSubscribeTraceClosesOnHandshakeCut(t *testing.T) {
	addr := netfaultServer(t)
	root := trace.Default.NewRoot("netfault.handshake")
	tc := traceToWire(root.Context())
	defer root.End(nil)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	faults := netfault.NewFaults(7)
	mx, err := newMux(faults.Wrap(conn), addr, DialOpts{})
	if err != nil {
		t.Fatalf("hello: %v", err)
	}
	t.Cleanup(mx.Close)
	faults.CutAfter(1) // the subscribe frame is the first write after the hello
	if _, err := mx.Subscribe(netfaultSub(t, tc)); err == nil {
		t.Fatal("subscribe succeeded over a cut transport")
	}

	sd := waitSubscribeSpan(t, root.Context().TraceID)
	if sd.Error == "" {
		t.Fatalf("client.subscribe closed without error status: %+v", sd)
	}
}
