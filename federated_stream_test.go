package nexus_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"nexus"
	"nexus/internal/engines/relational"
	"nexus/internal/server"
)

func eventCols() []nexus.ColumnDef {
	return []nexus.ColumnDef{
		{Name: "ts", Type: nexus.Int64},
		{Name: "k", Type: nexus.Int64},
		{Name: "v", Type: nexus.Float64},
	}
}

func eventSource(t *testing.T, n int64) nexus.StreamSource {
	t.Helper()
	src, err := nexus.GenerateSource("ts", n, func(i int64) []any {
		return []any{i - i%5, i % 7, float64(i%40) / 4}
	}, eventCols()...)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// windowedQuery builds the shared test query: filter + tumbling windowed
// revenue per key.
func windowedQuery(s *nexus.Session, src nexus.StreamSource) *nexus.StreamQuery {
	return s.StreamFrom(src).
		AllowedLateness(5).
		BatchSize(64).
		Window(nexus.Tumbling(25)).
		GroupBy("k").
		Agg(nexus.Sum("sv", nexus.Col("v")), nexus.Count("n"))
}

// tableRows renders sorted row strings for order-independent comparison.
func tableRows(t *testing.T, tab *nexus.Table) []string {
	t.Helper()
	names := tab.ColumnNames()
	rows := make([]string, tab.NumRows())
	for i := 0; i < tab.NumRows(); i++ {
		parts := make([]string, len(names))
		for c, name := range names {
			v, err := tab.Value(i, name)
			if err != nil {
				t.Fatal(err)
			}
			parts[c] = fmt.Sprintf("%v", v)
		}
		rows[i] = fmt.Sprint(parts)
	}
	sort.Strings(rows)
	return rows
}

// TestSubscribeRemoteMatchesLocal: the same windowed stream query
// produces identical results executed in process and as a federated
// subscription on one in-process provider.
func TestSubscribeRemoteMatchesLocal(t *testing.T) {
	s := nexus.NewSession()
	if _, err := s.AddEngine(nexus.Relational, "p0"); err != nil {
		t.Fatal(err)
	}
	local, err := windowedQuery(s, eventSource(t, 500)).Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	remote, err := windowedQuery(s, eventSource(t, 500)).CollectRemote(context.Background(), "p0")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tableRows(t, local), tableRows(t, remote)) {
		t.Fatalf("remote subscription differs from local run:\nlocal %d rows, remote %d rows", local.NumRows(), remote.NumRows())
	}
}

// TestPartitionedFanOut: PartitionBy splits a pushed stream across three
// in-process providers; the watermark-ordered merge reproduces the local
// run exactly (time windows are partition-invariant).
func TestPartitionedFanOut(t *testing.T) {
	s := nexus.NewSession()
	for i := 0; i < 3; i++ {
		if _, err := s.AddEngine(nexus.Relational, fmt.Sprintf("p%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	local, err := windowedQuery(s, eventSource(t, 900)).Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got []string
	lastStart := int64(-1 << 62)
	ordered := true
	stats, err := windowedQuery(s, eventSource(t, 900)).
		PartitionBy("k").
		SubscribeRemote(context.Background(), []string{"p0", "p1", "p2"}, func(tab *nexus.Table) error {
			mu.Lock()
			defer mu.Unlock()
			// Windowed merge must deliver in ascending window order.
			starts, err := tab.Ints("window_start")
			if err != nil {
				return err
			}
			for _, st := range starts {
				if st < lastStart {
					ordered = false
				}
				lastStart = st
			}
			got = append(got, tableRows(t, tab)...)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events != 900 {
		t.Fatalf("partitions consumed %d events, want 900", stats.Events)
	}
	if !ordered {
		t.Fatal("merged windows arrived out of watermark order")
	}
	sort.Strings(got)
	if want := tableRows(t, local); !reflect.DeepEqual(got, want) {
		t.Fatalf("partitioned fan-out differs from local run: got %d rows, want %d", len(got), len(want))
	}
}

// TestFederatedStreamSmoke is the CI smoke: two real servers on
// loopback, one windowed partitioned subscription over TCP, at least one
// result batch.
func TestFederatedStreamSmoke(t *testing.T) {
	var addrs []string
	for i := 0; i < 2; i++ {
		eng := relational.New(fmt.Sprintf("srv%d", i))
		srv, err := server.Serve(eng, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv.Logf = func(string, ...any) {}
		t.Cleanup(srv.Close)
		addrs = append(addrs, srv.Addr())
	}
	s := nexus.NewSession()
	var names []string
	for _, addr := range addrs {
		name, err := s.ConnectTCP(addr)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	batches := 0
	_, err := windowedQuery(s, eventSource(t, 400)).
		PartitionBy("k").
		SubscribeRemote(ctx, names, func(tab *nexus.Table) error {
			if tab.NumRows() > 0 {
				batches++
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if batches < 1 {
		t.Fatalf("smoke subscription yielded %d result batches, want ≥ 1", batches)
	}
}

// TestPartitionKeyMustBeGroupKey: splitting a windowed stream on a
// column that is not a group key would return partial aggregates per
// partition — it must be refused up front.
func TestPartitionKeyMustBeGroupKey(t *testing.T) {
	s := nexus.NewSession()
	for i := 0; i < 2; i++ {
		if _, err := s.AddEngine(nexus.Relational, fmt.Sprintf("p%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	_, err := s.StreamFrom(eventSource(t, 10)).
		Window(nexus.Tumbling(25)).
		GroupBy("k").
		Agg(nexus.Count("n")).
		PartitionBy("v"). // not a group key: groups would span partitions
		SubscribeRemote(context.Background(), []string{"p0", "p1"}, func(*nexus.Table) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "GroupBy") {
		t.Fatalf("cross-partition grouping accepted: %v", err)
	}
}

// TestStreamScanRemote: a StreamScan query subscribed remotely replays
// the dataset on the serving provider (no event shipping) and matches
// the local replay.
func TestStreamScanRemote(t *testing.T) {
	s := nexus.NewSession()
	if _, err := s.AddEngine(nexus.Relational, "p0"); err != nil {
		t.Fatal(err)
	}
	tb := nexus.NewTableBuilder(eventCols()...)
	for i := 0; i < 300; i++ {
		tb.Append(int64(i), int64(i%3), float64(i%11))
	}
	tab, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Store("p0", "events", tab); err != nil {
		t.Fatal(err)
	}
	q := func() *nexus.StreamQuery {
		return s.StreamScan("events", "ts").
			Window(nexus.Tumbling(50)).
			GroupBy("k").
			Agg(nexus.Sum("sv", nexus.Col("v")), nexus.Count("n"))
	}
	local, err := q().Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	remote, err := q().CollectRemote(context.Background(), "p0")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tableRows(t, local), tableRows(t, remote)) {
		t.Fatal("remote dataset replay differs from local StreamScan")
	}
}

// TestPushPublisherStopsSourceOnEarlyExit: when publishing stops early —
// the subscriber callback fails, the stream is cancelled and the next
// Publish errors — the publisher must stop the local source it opened
// instead of leaving the source's producer goroutine parked forever.
func TestPushPublisherStopsSourceOnEarlyExit(t *testing.T) {
	before := generatorGoroutines()
	s := nexus.NewSession()
	if _, err := s.AddEngine(nexus.Relational, "p0"); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("subscriber gave up")
	_, err := windowedQuery(s, eventSource(t, 1_000_000)).
		SubscribeRemote(context.Background(), []string{"p0"}, func(*nexus.Table) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("want the callback's error, got %v", err)
	}
	s.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := generatorGoroutines()
		if n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d source generator goroutines still running after the stream ended", n-before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// generatorGoroutines counts the live producer goroutines of generator
// sources.
func generatorGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "created by nexus/internal/stream.(*generator).")
		}
		buf = make([]byte, 2*len(buf))
	}
}
