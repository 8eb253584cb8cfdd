package replication

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	"nexus/internal/federation"
	"nexus/internal/server"
	"nexus/internal/storage"
	"nexus/internal/table"
	"nexus/internal/wire"
)

// TestChaosPrimaryHelper is the child process: a durable primary on an
// ephemeral port, checkpointing hosted subscriptions at every batch,
// serving replication to any follower that asks. Runs until killed.
func TestChaosPrimaryHelper(t *testing.T) {
	dir := os.Getenv("NEXUS_REPL_PRIMARY_DIR")
	if dir == "" {
		t.Skip("chaos primary helper (only runs re-executed)")
	}
	eng, err := storage.OpenEngine("p", dir)
	if err != nil {
		fmt.Println("ERR", err)
		os.Exit(1)
	}
	srv, err := server.ServeWithCheckpoints(eng, "127.0.0.1:0", eng.Backing(), 0)
	if err != nil {
		fmt.Println("ERR", err)
		os.Exit(1)
	}
	srv.Logf = func(string, ...any) {}
	fmt.Println("ADDR", srv.Addr())
	select {} // run until killed
}

// spawnPrimary re-executes the test binary as a durable primary and
// returns its address and a SIGKILL function.
func spawnPrimary(t *testing.T, dir string) (addr string, kill func()) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "TestChaosPrimaryHelper$", "-test.v")
	cmd.Env = append(os.Environ(), "NEXUS_REPL_PRIMARY_DIR="+dir)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "ERR") {
			cmd.Process.Kill()
			t.Fatalf("primary helper: %s", line)
		}
		if strings.HasPrefix(line, "ADDR ") {
			addr = strings.TrimSpace(strings.TrimPrefix(line, "ADDR "))
			break
		}
	}
	if addr == "" {
		cmd.Process.Kill()
		t.Fatal("primary helper printed no address")
	}
	go func() {
		for sc.Scan() {
		}
	}()
	var once sync.Once
	return addr, func() {
		once.Do(func() {
			cmd.Process.Kill() // SIGKILL: no shutdown path runs
			cmd.Wait()
		})
	}
}

// TestSIGKILLPrimaryFailover is the headline chaos scenario: a real
// primary process is SIGKILLed while a durable windowed subscription is
// mid-stream; the failover client redials the follower, which restores
// the stream from the replicated checkpoint, and after deduping the
// at-least-once overlap the delivered windows are byte-identical to an
// uninterrupted run.
func TestSIGKILLPrimaryFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test")
	}
	primaryAddr, kill := spawnPrimary(t, t.TempDir())
	defer kill()

	events := eventsTable(5000)
	mx, err := federation.DialMux(primaryAddr, federation.DialOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mx.Store("events", events, nil); err != nil {
		t.Fatal(err)
	}
	mx.Close()

	// Local follower: replica engine + continuous replicator + a server
	// for failed-over subscribers. The dataset is fully replicated before
	// the stream starts, so the chaos outcome is deterministic.
	follower := openEngine(t, "p", t.TempDir())
	follower.SetReplica(true)
	rep := New(follower, Config{
		Primary:  primaryAddr,
		Interval: 25 * time.Millisecond,
	})
	rep.Start()
	defer rep.Stop()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := rep.Status()
		if st.Err == "" && st.Gen > 0 && st.Gen == st.PrimaryGen {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	followerSrv := serveEngine(t, follower)
	followerSrv.SetReplStatus(rep.Status)

	// Subscribe with failover across {primary, follower}; small credit
	// and a slow consumer keep the stream far from finished at the kill.
	b := federation.NewBackoff(1)
	b.Base, b.Max = 10*time.Millisecond, 100*time.Millisecond
	fo, err := federation.SubscribeFailover(context.Background(),
		[]string{primaryAddr, followerSrv.Addr()},
		wire.StreamSub{
			SourceKind: wire.StreamSrcDataset,
			Dataset:    "events", TimeCol: "ts",
			Spec: windowedSpec(t), Durable: "job", Credit: 2,
		},
		federation.FailoverOpts{Backoff: b, Logf: t.Logf},
	)
	if err != nil {
		t.Fatal(err)
	}
	defer fo.Close()

	var tabs []*table.Table
	batches := 0
	for sb := range fo.Batches() {
		if sb.Table == nil {
			continue
		}
		tabs = append(tabs, sb.Table)
		batches++
		if batches == 3 {
			kill() // SIGKILL the primary mid-stream
		}
		if batches >= 3 {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if err := fo.Err(); err != nil {
		t.Fatalf("stream failed terminally: %v", err)
	}
	if fo.Failovers() != 1 {
		t.Fatalf("failovers = %d, want 1", fo.Failovers())
	}
	if fo.Addr() != followerSrv.Addr() {
		t.Fatalf("stream finished on %s, want the follower %s", fo.Addr(), followerSrv.Addr())
	}

	got := dedupeWindows(t, tabs)
	want := dedupeWindows(t, []*table.Table{oracleRun(t, events, windowedSpec(t))})
	if len(got) != len(want) {
		t.Fatalf("recovered %d distinct windows, uninterrupted run has %d", len(got), len(want))
	}
	for k, w := range want {
		switch g, ok := got[k]; {
		case !ok:
			t.Fatalf("window %s lost across the SIGKILL", k)
		case g != w:
			t.Fatalf("window %s differs: got %s want %s", k, g, w)
		}
	}
}
