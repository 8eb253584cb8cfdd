package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"nexus"
	"nexus/internal/engines/relational"
	"nexus/internal/server"
)

// Front-door multiplexing benchmark (-load-mux -> BENCH_8.json). For
// each subscription count it runs the same windowed dataset-replay
// workload twice — once with one session, and so one connection, per
// subscription, once with every subscription sharing a single
// session's connection — and reports connection counts, wall time and
// per-subscription completion latency (p50/p99). Sharing must collapse
// N connections into one without inflating the tail; the run
// self-asserts that both modes actually streamed windows.

// MuxRun is one (mode, subscription count) cell.
type MuxRun struct {
	Mode          string  `json:"mode"` // conn-per-sub | mux
	Subscriptions int     `json:"subscriptions"`
	Connections   int     `json:"connections"`
	Windows       int64   `json:"windows"`
	WallMs        float64 `json:"wall_ms"`
	P50Ms         float64 `json:"p50_ms"`
	P99Ms         float64 `json:"p99_ms"`
}

// MuxReport is the BENCH_8.json shape.
type MuxReport struct {
	GeneratedAt string   `json:"generated_at"`
	GoMaxProcs  int      `json:"gomaxprocs"`
	SeedRows    int      `json:"seed_rows"`
	Runs        []MuxRun `json:"runs"`
}

func runLoadMux(out string, quick bool) error {
	const seedRows = 20000
	eng := relational.New("muxbench")
	srv, err := server.Serve(eng, "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv.Logf = func(string, ...any) {}
	defer srv.Close()

	seed, err := loadEvents(0, seedRows)
	if err != nil {
		return err
	}
	seeder := nexus.NewSession()
	seedProv, err := seeder.ConnectTCP(srv.Addr())
	if err != nil {
		return err
	}
	if err := seeder.Store(seedProv, loadDataset, seed); err != nil {
		return err
	}

	counts := []int{16, 64, 256}
	if quick {
		counts = []int{8, 32}
	}

	// drain runs n concurrent copies of the windowed replay over the
	// provided (session, provider) pairs — one pair per subscription in
	// conn-per-sub mode, the same pair n times in mux mode — and returns
	// per-subscription completion latencies plus the window total.
	drain := func(n int, session func(i int) (*nexus.Session, string)) ([]time.Duration, int64, error) {
		lats := make([]time.Duration, n)
		windows := make([]int64, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				s, prov := session(i)
				start := time.Now()
				_, err := s.StreamScan(loadDataset, "ts").
					BatchSize(2048).
					Window(nexus.Tumbling(1000)).
					GroupBy("sym").
					Agg(nexus.Count("n")).
					SubscribeRemote(context.Background(), []string{prov}, func(*nexus.Table) error {
						windows[i]++
						return nil
					})
				lats[i] = time.Since(start)
				errs[i] = err
			}(i)
		}
		wg.Wait()
		var total int64
		for i := 0; i < n; i++ {
			if errs[i] != nil {
				return nil, 0, fmt.Errorf("subscription %d: %w", i, errs[i])
			}
			total += windows[i]
		}
		return lats, total, nil
	}
	pct := func(lats []time.Duration, p float64) float64 {
		s := append([]time.Duration(nil), lats...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		idx := int(float64(len(s)-1) * p)
		return float64(s[idx]) / float64(time.Millisecond)
	}

	report := MuxReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		SeedRows:    seedRows,
	}
	fmt.Printf("load-mux: windowed replay of %d rows against %s\n\n", seedRows, srv.Addr())
	fmt.Printf("%-14s %6s %6s %9s %10s %10s %10s\n", "mode", "subs", "conns", "windows", "wall", "p50", "p99")

	for _, n := range counts {
		// Baseline: one session, and so one connection, per subscription.
		sessions := make([]*nexus.Session, n)
		provs := make([]string, n)
		for i := 0; i < n; i++ {
			s := nexus.NewSession()
			prov, err := s.ConnectTCP(srv.Addr())
			if err != nil {
				return err
			}
			sessions[i], provs[i] = s, prov
		}
		t0 := time.Now()
		lats, windows, err := drain(n, func(i int) (*nexus.Session, string) { return sessions[i], provs[i] })
		if err != nil {
			return fmt.Errorf("conn-per-sub (%d subs): %w", n, err)
		}
		base := MuxRun{
			Mode: "conn-per-sub", Subscriptions: n, Connections: n, Windows: windows,
			WallMs: float64(time.Since(t0)) / float64(time.Millisecond),
			P50Ms:  pct(lats, 0.50), P99Ms: pct(lats, 0.99),
		}
		report.Runs = append(report.Runs, base)
		for _, s := range sessions {
			s.Close()
		}

		// The front door under test: every subscription shares one
		// session's connection.
		ms := nexus.NewSession()
		mprov, err := ms.ConnectTCP(srv.Addr())
		if err != nil {
			return err
		}
		t0 = time.Now()
		lats, windows, err = drain(n, func(int) (*nexus.Session, string) { return ms, mprov })
		if err != nil {
			return fmt.Errorf("mux (%d subs): %w", n, err)
		}
		mux := MuxRun{
			Mode: "mux", Subscriptions: n, Connections: 1, Windows: windows,
			WallMs: float64(time.Since(t0)) / float64(time.Millisecond),
			P50Ms:  pct(lats, 0.50), P99Ms: pct(lats, 0.99),
		}
		report.Runs = append(report.Runs, mux)
		ms.Close()

		for _, r := range []MuxRun{base, mux} {
			fmt.Printf("%-14s %6d %6d %9d %9.0fms %9.1fms %9.1fms\n",
				r.Mode, r.Subscriptions, r.Connections, r.Windows, r.WallMs, r.P50Ms, r.P99Ms)
		}
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", out)

	// Self-assertion: both modes must have streamed real windows at
	// every size, with the same totals — a mode that did nothing (or
	// dropped windows) must fail loudly, not publish zeros.
	for i := 0; i+1 < len(report.Runs); i += 2 {
		b, m := report.Runs[i], report.Runs[i+1]
		if b.Windows == 0 || m.Windows == 0 || b.P99Ms <= 0 || m.P99Ms <= 0 {
			return fmt.Errorf("idle run: %+v vs %+v", b, m)
		}
		if b.Windows != m.Windows {
			return fmt.Errorf("mux lost windows at %d subs: %d vs %d", b.Subscriptions, m.Windows, b.Windows)
		}
	}
	return nil
}
