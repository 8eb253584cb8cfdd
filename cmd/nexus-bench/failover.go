package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"

	"nexus/internal/core"
	"nexus/internal/expr"
	"nexus/internal/federation"
	"nexus/internal/replication"
	"nexus/internal/schema"
	"nexus/internal/server"
	"nexus/internal/storage"
	"nexus/internal/stream"
	"nexus/internal/table"
	"nexus/internal/value"
	"nexus/internal/wire"
)

// Failover benchmark (-failover -> BENCH_7.json). Each iteration spawns
// a real durable primary as a child process, replicates its dataset to
// an in-process follower, starts a durable windowed subscription with
// failover across {primary, follower}, SIGKILLs the primary once half
// the windows have arrived, and measures the gap from the kill to the
// first window delivered by the follower. The report carries p50/p99 of
// that gap across iterations, and every iteration asserts the deduped
// window set is byte-identical to an uninterrupted in-process run — a
// fast failover that loses data would be worse than useless.

// FailoverGap summarises the kill-to-first-window gap distribution.
type FailoverGap struct {
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MinMs  float64 `json:"min_ms"`
	MaxMs  float64 `json:"max_ms"`
	MeanMs float64 `json:"mean_ms"`
}

// FailoverReport is the BENCH_7.json shape.
type FailoverReport struct {
	GeneratedAt   string      `json:"generated_at"`
	GoMaxProcs    int         `json:"gomaxprocs"`
	Iterations    int         `json:"iterations"`
	Rows          int         `json:"rows"`
	WindowsPerRun int         `json:"windows_per_run"`
	Failovers     int         `json:"failovers"`
	WindowsLost   int         `json:"windows_lost"`
	Gap           FailoverGap `json:"gap"`
	GapsMs        []float64   `json:"gaps_ms"`
}

func failoverSchema() schema.Schema {
	return schema.New(
		schema.Attribute{Name: "ts", Kind: value.KindInt64},
		schema.Attribute{Name: "k", Kind: value.KindInt64},
		schema.Attribute{Name: "v", Kind: value.KindInt64},
	)
}

func failoverEvents(n int) *table.Table {
	b := table.NewBuilder(failoverSchema(), n)
	for i := 0; i < n; i++ {
		b.MustAppend(value.NewInt(int64(i)), value.NewInt(int64(i%4)), value.NewInt(int64(i)*3))
	}
	return b.Build()
}

func failoverSpec() (stream.Spec, error) {
	v, err := core.NewVar(stream.BatchVar, failoverSchema())
	if err != nil {
		return stream.Spec{}, err
	}
	return stream.Spec{
		Pre:      v,
		Windowed: true,
		Win:      core.StreamWindow{Kind: core.WindowTumbling, Size: 100, Slide: 100},
		Keys:     []string{"k"},
		Aggs: []core.AggSpec{
			{Func: core.AggSum, Arg: expr.Column("v"), As: "s"},
			{Func: core.AggCount, As: "n"},
		},
		BatchSize: 50,
	}, nil
}

// runFailoverPrimary is the child-process mode (-failover-primary DIR):
// a durable server on an ephemeral port that runs until killed.
func runFailoverPrimary(dir string) error {
	eng, err := storage.OpenEngine("p", dir)
	if err != nil {
		return err
	}
	srv, err := server.ServeWithCheckpoints(eng, "127.0.0.1:0", eng.Backing(), 0)
	if err != nil {
		return err
	}
	srv.Logf = func(string, ...any) {}
	fmt.Println("ADDR", srv.Addr())
	select {} // run until SIGKILLed
}

// spawnBenchPrimary re-executes this binary as a durable primary and
// returns its address plus a SIGKILL function.
func spawnBenchPrimary(dir string) (addr string, kill func(), err error) {
	cmd := exec.Command(os.Args[0], "-failover-primary", dir)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return "", nil, err
	}
	if err := cmd.Start(); err != nil {
		return "", nil, err
	}
	kill = func() {
		cmd.Process.Kill() // SIGKILL: no shutdown path runs
		cmd.Wait()
	}
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, "ADDR ") {
			addr = strings.TrimSpace(strings.TrimPrefix(line, "ADDR "))
			break
		}
	}
	if addr == "" {
		kill()
		return "", nil, fmt.Errorf("failover primary printed no address")
	}
	go func() { // drain so the child never blocks on stdout
		for sc.Scan() {
		}
	}()
	return addr, kill, nil
}

// windowKeys dedupes at-least-once delivery: row keyed by
// (window_start, k), last copy wins.
func windowKeys(tabs []*table.Table) (map[string]string, error) {
	out := map[string]string{}
	for _, tb := range tabs {
		if tb == nil {
			continue
		}
		ws := tb.Schema().IndexOf(stream.WindowStartCol)
		kc := tb.Schema().IndexOf("k")
		if ws < 0 || kc < 0 {
			return nil, fmt.Errorf("window table lacks key columns: %v", tb.Schema())
		}
		for r := 0; r < tb.NumRows(); r++ {
			key := fmt.Sprintf("%v|%v", tb.Value(r, ws), tb.Value(r, kc))
			var row strings.Builder
			for c := 0; c < tb.NumCols(); c++ {
				fmt.Fprintf(&row, "%v|", tb.Value(r, c))
			}
			out[key] = row.String()
		}
	}
	return out, nil
}

// failoverOnce runs one kill-and-recover iteration and returns the
// kill-to-first-follower-window gap plus the deduped window rows.
func failoverOnce(events *table.Table, sp stream.Spec, expectWindows int) (gap time.Duration, got map[string]string, err error) {
	primaryDir, err := os.MkdirTemp("", "nexus-failover-p-*")
	if err != nil {
		return 0, nil, err
	}
	defer os.RemoveAll(primaryDir)
	followerDir, err := os.MkdirTemp("", "nexus-failover-f-*")
	if err != nil {
		return 0, nil, err
	}
	defer os.RemoveAll(followerDir)

	primaryAddr, kill, err := spawnBenchPrimary(primaryDir)
	if err != nil {
		return 0, nil, err
	}
	defer kill()

	mx, err := federation.DialMux(primaryAddr, federation.DialOpts{})
	if err != nil {
		return 0, nil, err
	}
	if err := mx.Store("events", events, nil); err != nil {
		mx.Close()
		return 0, nil, err
	}
	mx.Close()

	follower, err := storage.OpenEngine("p", followerDir)
	if err != nil {
		return 0, nil, err
	}
	defer follower.Close()
	follower.SetReplica(true)
	rep := replication.New(follower, replication.Config{
		Primary:  primaryAddr,
		Interval: 10 * time.Millisecond,
	})
	rep.Start()
	defer rep.Stop()
	deadline := time.Now().Add(15 * time.Second)
	for {
		st := rep.Status()
		if st.Err == "" && st.Gen > 0 && st.Gen == st.PrimaryGen {
			break
		}
		if time.Now().After(deadline) {
			return 0, nil, fmt.Errorf("follower never caught up: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	followerSrv, err := server.ServeWithCheckpoints(follower, "127.0.0.1:0", follower.Backing(), 0)
	if err != nil {
		return 0, nil, err
	}
	followerSrv.Logf = func(string, ...any) {}
	defer followerSrv.Close()
	followerSrv.SetReplStatus(rep.Status)

	b := federation.NewBackoff(time.Now().UnixNano())
	b.Base, b.Max = 5*time.Millisecond, 50*time.Millisecond
	fo, err := federation.SubscribeFailover(context.Background(),
		[]string{primaryAddr, followerSrv.Addr()},
		wire.StreamSub{
			SourceKind: wire.StreamSrcDataset,
			Dataset:    "events", TimeCol: "ts",
			Spec: sp, Durable: "bench", Credit: 2,
		},
		federation.FailoverOpts{Backoff: b},
	)
	if err != nil {
		return 0, nil, err
	}
	defer fo.Close()

	var (
		tabs    []*table.Table
		winSeen = map[string]bool{}
		killed  bool
		tKill   time.Time
	)
	for sb := range fo.Batches() {
		if sb.Table == nil {
			continue
		}
		tabs = append(tabs, sb.Table)
		if gap == 0 && killed && fo.Failovers() > 0 {
			gap = time.Since(tKill)
		}
		if ws := sb.Table.Schema().IndexOf(stream.WindowStartCol); ws >= 0 {
			for r := 0; r < sb.Table.NumRows(); r++ {
				winSeen[fmt.Sprint(sb.Table.Value(r, ws))] = true
			}
		}
		if !killed && len(winSeen) >= expectWindows/2 {
			killed = true
			tKill = time.Now()
			kill() // SIGKILL the primary at t=50%
		}
		time.Sleep(2 * time.Millisecond) // slow consumer keeps the stream alive past the kill
	}
	if err := fo.Err(); err != nil {
		return 0, nil, fmt.Errorf("stream failed terminally: %w", err)
	}
	if !killed {
		return 0, nil, fmt.Errorf("stream finished before the kill point (%d/%d windows)", len(winSeen), expectWindows)
	}
	if fo.Failovers() != 1 {
		return 0, nil, fmt.Errorf("failovers = %d, want 1", fo.Failovers())
	}
	if gap == 0 {
		return 0, nil, fmt.Errorf("no window arrived after the failover")
	}
	got, err = windowKeys(tabs)
	return gap, got, err
}

func runFailoverBench(out string, iters, rows int) error {
	sp, err := failoverSpec()
	if err != nil {
		return err
	}
	events := failoverEvents(rows)
	expectWindows := rows / 100

	// Uninterrupted in-process oracle: the window set every iteration
	// must reproduce exactly.
	p, err := stream.FromSpec(stream.NewReplay(events, "ts"), sp)
	if err != nil {
		return err
	}
	sink := stream.NewCollect(p.OutputSchema())
	if _, err := p.Run(context.Background(), sink); err != nil {
		return err
	}
	oracle, err := sink.Table()
	if err != nil {
		return err
	}
	want, err := windowKeys([]*table.Table{oracle})
	if err != nil {
		return err
	}

	fmt.Printf("failover: %d iterations, %d rows (%d windows), primary SIGKILLed at 50%%\n\n",
		iters, rows, expectWindows)
	report := FailoverReport{
		GeneratedAt:   time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		Iterations:    iters,
		Rows:          rows,
		WindowsPerRun: expectWindows,
	}
	var gaps []time.Duration
	for i := 0; i < iters; i++ {
		gap, got, err := failoverOnce(events, sp, expectWindows)
		if err != nil {
			return fmt.Errorf("iteration %d: %w", i+1, err)
		}
		for k, w := range want {
			switch g, ok := got[k]; {
			case !ok:
				report.WindowsLost++
			case g != w:
				return fmt.Errorf("iteration %d: window %s differs: got %s want %s", i+1, k, g, w)
			}
		}
		gaps = append(gaps, gap)
		report.Failovers++
		report.GapsMs = append(report.GapsMs, float64(gap)/1e6)
		fmt.Printf("  iter %2d: gap %8.2fms  (%d/%d windows recovered)\n",
			i+1, float64(gap)/1e6, len(got), len(want))
	}
	if report.WindowsLost > 0 {
		return fmt.Errorf("%d windows lost across the failovers", report.WindowsLost)
	}

	sort.Slice(gaps, func(i, j int) bool { return gaps[i] < gaps[j] })
	pct := func(q float64) float64 {
		idx := int(q*float64(len(gaps))+0.5) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(gaps) {
			idx = len(gaps) - 1
		}
		return float64(gaps[idx]) / 1e6
	}
	var sum time.Duration
	for _, g := range gaps {
		sum += g
	}
	report.Gap = FailoverGap{
		P50Ms:  pct(0.50),
		P99Ms:  pct(0.99),
		MinMs:  float64(gaps[0]) / 1e6,
		MaxMs:  float64(gaps[len(gaps)-1]) / 1e6,
		MeanMs: float64(sum) / float64(len(gaps)) / 1e6,
	}
	fmt.Printf("\ngap-to-first-window-after-failover: p50 %.2fms  p99 %.2fms  min %.2fms  max %.2fms  mean %.2fms\n",
		report.Gap.P50Ms, report.Gap.P99Ms, report.Gap.MinMs, report.Gap.MaxMs, report.Gap.MeanMs)

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}
