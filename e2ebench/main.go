// Command e2ebench drives a durable nexus server through the public
// client and reports what a user of the system sees: latency per query
// class, throughput, set-up time and peak heap. With -trace 1 it instead
// splits the same operations by layer, timing calls into each layer's
// public functions from this package. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"nexus/internal/server"
	"nexus/internal/table"
)

// workload is one traffic mix.
type workload struct {
	name string
	// cold drops the engine's caches, untimed, before every read.
	cold bool
	// ingest adds a writer client beside the reader, a background
	// compactor and the closing durability check.
	ingest bool
	// reads is how many reads of each class the reader's sequence
	// holds per second of -seconds; the counts are fixed per run, so
	// every run does the same reads. The timed run goes through the
	// sequence timedPasses times.
	reads map[string]int
	// subscribeEvery puts a subscription after every n-th read (0: none).
	subscribeEvery int
	// appendsPerRead paces the writer: just before each read issue the
	// reader hands it this many turns, and the writer, closed loop,
	// spends each on one append as soon as the previous one is
	// acknowledged. Reads thus overlap writes, and the writes are the
	// same share of every run's work however fast the machine runs.
	appendsPerRead int
	// eventsEvery sends every n-th append to events instead of sales.
	eventsEvery int
}

// workloads are the traffic mixes. Read counts are sized so a timed
// run lasts about -seconds on a 2-core machine; with the sequence run
// timedPasses times, each class gets at least 150 issues at -seconds
// 15, enough for a p90 with ten beyond it.
var workloads = []workload{
	{
		// Every page cached: isolates the CPU layers.
		name:  "warm_read",
		reads: map[string]int{classPoint: 6, classAgg: 2, classExport: 3},
	},
	{
		// Caches dropped before every read: segment I/O, CRC and page
		// parse on every read, as on first touch.
		name:  "cold_read",
		cold:  true,
		reads: map[string]int{classPoint: 2, classAgg: 2, classExport: 2},
	},
	{
		// Appends, flushes and compactions beside the reads.
		name:           "ingest_mix",
		ingest:         true,
		reads:          map[string]int{classPoint: 6, classAgg: 2, classExport: 2},
		subscribeEvery: 5,
		appendsPerRead: 2,
		eventsEvery:    8,
	},
}

// Set-up repeats: setup_s is the median of this many full set-ups.
const setupRuns = 3

// timedPasses is how many times the timed run goes through the planned
// read sequence. A read's figure is the median over its passes, so a
// pause from outside the program (another tenant of the machine, a
// collection that happened to overlap) must hit the same read in most
// passes, seconds apart, to count. Every issue is checked and booked,
// and the printed tails use all of them.
const timedPasses = 5

// ingest_mix background work: the WAL size that seals a segment, and
// how many appends start a compaction cycle in the background, few
// enough for several cycles per run. Counting appends rather than
// seconds makes every run compact the same data, however fast the
// machine runs.
const (
	ingestFlushBytes = 1 << 20
	compactEvery     = 64
)

type config struct {
	w       workload
	seed    int64
	seconds int
	trace   bool
	dir     string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: warm_read, cold_read or ingest_mix")
	seed := fs.Int64("seed", 1, "seed for the data and the operation sequence")
	seconds := fs.Int("seconds", 15, "run length the operation counts are sized for")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the timed one")
	dir := fs.String("dir", filepath.Join(".bench_build", "e2ebench", "data"), "parent of the run's data directories")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, dir: *dir}
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == *name })
	if i < 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: bad arguments: -workload %q -seconds %d -trace %d\n", *name, *seconds, *trace)
		return 2
	}
	cfg.w = workloads[i]
	res, err := execute(cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintln(stderr, "e2ebench: wrong results, see above")
		return 1
	}
	return 0
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run's live state.
type bench struct {
	cfg    config
	out    io.Writer
	base   string
	data   *loaded
	srv    *server.Server
	oracle *aggOracle
	seq    []op // the reader's planned operations
	warmup []op // untimed reads that fill the caches first

	setupS     float64
	setupTimes []float64

	// Writer progress, per dataset: batches sent and acknowledged.
	salesSent, salesAcked   atomic.Int64
	eventsSent, eventsAcked atomic.Int64
	userBytes               atomic.Int64

	mu        sync.Mutex
	lat       map[string][]float64 // ms per completed operation, by class
	passes    int                  // times the reader goes through seq
	ref       *refWork             // machine-speed reference, timed runs only
	refMS     []float64            // ms per reference run: before every issue, and after the last
	issues    []issue              // the reader's read issues, in order
	heap      *heapSampler         // live-heap sampler, timed runs only
	heapPeaks []float64            // MB, the peak live heap of each pass
	turns     chan struct{}        // the writer's turns, in ingest_mix
	attempted int
	failed    int
	wrong     int
	errs      []string
	paths     map[string]map[string]int // class -> serving path -> count

	firstWindow []float64 // ms from subscribing to the first window
}

// record books one finished operation.
func (b *bench) record(class string, d time.Duration, err error, wrong bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
		if wrong {
			b.wrong++
		}
		if len(b.errs) < 8 {
			b.errs = append(b.errs, fmt.Sprintf("%s: %v", class, err))
		}
		return
	}
	b.lat[class] = append(b.lat[class], float64(d.Nanoseconds())/1e6)
}

func (b *bench) notePath(class, path string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.paths[class] == nil {
		b.paths[class] = map[string]int{}
	}
	b.paths[class][path]++
}

func (b *bench) logf(format string, args ...any) { fmt.Fprintf(b.out, format+"\n", args...) }

func execute(cfg config, out io.Writer) (*result, error) {
	b := &bench{cfg: cfg, out: out, lat: map[string][]float64{}, paths: map[string]map[string]int{}, passes: timedPasses}
	b.base = filepath.Join(cfg.dir, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(b.base)
	b.logf("# e2ebench workload=%s seed=%d seconds=%d trace=%v", cfg.w.name, cfg.seed, cfg.seconds, cfg.trace)
	b.logf("# %s", fingerprint(cfg.seed))

	runs := setupRuns
	if cfg.trace {
		runs = 1
	}
	data, ordered, setupS, times, err := timedSetups(b.base, cfg.seed, runs)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	b.data, b.setupS, b.setupTimes = data, setupS, times
	defer func() {
		if b.data.eng != nil {
			b.data.eng.Close()
		}
	}()
	b.plan(ordered)
	ordered = nil
	runtime.GC()

	if cfg.w.ingest {
		b.data.eng.Backing().FlushBytes = ingestFlushBytes
		if b.data.bytes, err = dirBytes(b.data.dir); err != nil {
			return nil, err
		}
	}
	srv, err := server.ServeWithCheckpoints(b.data.eng, "127.0.0.1:0", b.data.eng.Backing(), time.Second)
	if err != nil {
		return nil, err
	}
	srv.Logf = func(string, ...any) {}
	b.srv = srv
	defer func() {
		if b.srv != nil {
			b.srv.Close()
		}
	}()

	if cfg.trace {
		b.passes = 1
		return b.traced()
	}
	return b.timed()
}

// plan fixes the reader's operation sequence and the oracle's expected
// results while the generated table is still at hand.
func (b *bench) plan(ordered *table.Table) {
	counts := map[string]int{}
	for c, perSec := range b.cfg.w.reads {
		counts[c] = perSec * b.cfg.seconds
	}
	b.seq = readOps(b.cfg.seed, counts)
	// Warm-up: ranges spread over the whole table, every region.
	for i := int64(0); i < 8; i++ {
		b.warmup = append(b.warmup,
			op{class: classPoint, lo: i * (salesRows - pointWidth) / 7},
			op{class: classExport, lo: i * (salesRows - exportWidth) / 7})
	}
	for r := range regionCode {
		b.warmup = append(b.warmup, op{class: classAgg, region: int(regionCode[r])})
	}
	for _, ops := range [][]op{b.seq, b.warmup} {
		for i := range ops {
			o := &ops[i]
			switch o.class {
			case classPoint:
				o.want = rangeDigest(ordered, o.lo, o.lo+pointWidth, pointCols)
			case classExport:
				o.want = rangeDigest(ordered, o.lo, o.lo+exportWidth, salesCols)
			}
		}
	}
	b.oracle = newAggOracle(b.cfg.seed, ordered)
}

// warm runs the warm-up reads, checked but untimed.
func (b *bench) warm(c *client) error {
	for _, o := range b.warmup {
		t, _, err := c.read(o)
		if err == nil {
			err = checkRead(o, t, b.oracle, 0, 0)
		}
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", o.class, err)
		}
	}
	return nil
}

// timed is the untraced run: the end-to-end metrics.
func (b *bench) timed() (*result, error) {
	reader, err := dial(b.srv.Addr())
	if err != nil {
		return nil, err
	}
	defer reader.close()
	if err := b.warm(reader); err != nil {
		return nil, err
	}
	if b.ref, err = newRefWork(); err != nil {
		return nil, err
	}
	defer b.ref.close()
	b.heap = startHeapSampler()
	defer b.heap.stop()
	gc0 := readGCStats()
	cpu0, cpuOK := readCPUTicks()
	start := time.Now()
	err = b.pass(reader, nil)
	wall := time.Since(start)
	gc := readGCStats().sub(gc0)
	if err != nil {
		return nil, err
	}
	b.logf("cpu steal: %.3f of the machine's CPU time during the timed phase (-1: unknown)", stealShare(cpu0, cpuOK))
	correct, err := b.closeIngest()
	if err != nil {
		return nil, err
	}
	return b.report(wall, gc, correct), nil
}

// closeIngest ends an ingest_mix run with the durability check and the
// write-amplification figure. It reports whether every acknowledged
// append survived the reopen.
func (b *bench) closeIngest() (bool, error) {
	if !b.cfg.w.ingest {
		return true, nil
	}
	if err := b.checkDurability(); err != nil {
		b.logf("durability: FAILED: %v", err)
		return false, nil
	}
	wa, err := b.writeAmplification()
	if err != nil {
		return false, err
	}
	b.logf("bytes_per_user_byte: %.4f (data-dir growth over %d appended user bytes)", wa, b.userBytes.Load())
	return true, nil
}

// pass runs the reader's planned sequence and, in ingest_mix, the
// writer's appends and the background compactor beside it until the
// reader is done. With tr set, every operation is followed by its
// layer-by-layer replay.
func (b *bench) pass(reader *client, tr *tracer) error {
	var wg sync.WaitGroup
	var writerErr error
	if b.cfg.w.ingest {
		writer, err := dial(b.srv.Addr())
		if err != nil {
			return err
		}
		n := b.passes * len(b.seq) * b.cfg.w.appendsPerRead
		turns, compactions := make(chan struct{}, n), make(chan struct{}, n/compactEvery+1)
		b.turns = turns
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer writer.close()
			defer close(compactions)
			writerErr = b.write(writer, turns, compactions, tr)
		}()
		go func() {
			// Like the engine's own compactor, a failed cycle (such as
			// one that lost a race with a flush) is left for the next.
			defer wg.Done()
			for range compactions {
				b.data.eng.Compact(compactOptions(0))
			}
		}()
	}
	readerErr := b.readLoop(reader, tr)
	if b.turns != nil {
		close(b.turns)
		b.turns = nil
	}
	wg.Wait()
	return errors.Join(readerErr, writerErr)
}

// readLoop goes b.passes times through the reader's planned sequence.
// With tr set, every read is followed by its layer-by-layer replay.
func (b *bench) readLoop(c *client, tr *tracer) error {
	w := b.cfg.w
	b.issues = b.issues[:0]
	for pass := 0; pass < b.passes; pass++ {
		for i, o := range b.seq {
			if err := b.timeRef(); err != nil {
				return err
			}
			for j := 0; b.turns != nil && j < w.appendsPerRead; j++ {
				b.turns <- struct{}{}
			}
			el, ok, err := b.readOnce(c, o, tr)
			if err != nil {
				return err
			}
			t := -1.0
			if ok {
				t = ms(el)
			}
			b.issues = append(b.issues, issue{read: i, ms: t})
			if w.subscribeEvery > 0 && (i+1)%w.subscribeEvery == 0 {
				if err := b.subscribeOnce(c, tr); err != nil {
					return err
				}
			}
		}
		if b.heap != nil {
			b.heapPeaks = append(b.heapPeaks, float64(b.heap.takePeak())/(1<<20))
		}
	}
	return b.timeRef()
}

// timeRef runs and books the reference work, in timed runs.
func (b *bench) timeRef() error {
	if b.ref == nil {
		return nil
	}
	d, err := b.ref.run()
	if err != nil {
		return fmt.Errorf("reference work: %w", err)
	}
	b.refMS = append(b.refMS, ms(d))
	return nil
}

// issue is one issue of a planned read: the read's index in seq and its
// latency in ms, or -1 if it failed.
type issue struct {
	read int
	ms   float64
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// readOnce issues, checks and books one read. ok reports whether it
// completed with the right result; err is set only when the run cannot
// go on.
func (b *bench) readOnce(c *client, o op, tr *tracer) (el time.Duration, ok bool, err error) {
	w := b.cfg.w
	eng := b.data.eng
	if w.cold {
		eng.DropCache()
	}
	before := snapshotOp(eng)
	acked := int(b.salesAcked.Load())
	t, el, rerr := c.read(o)
	wrong := false
	if rerr == nil {
		if rerr = checkRead(o, t, b.oracle, acked, int(b.salesSent.Load())); rerr != nil {
			wrong = true
		}
	}
	delta := snapshotOp(eng).sub(before)
	if rerr == nil && !w.ingest {
		path := delta.eng.path()
		b.notePath(o.class, path)
		if path == "warm-table" {
			rerr, wrong = fmt.Errorf("served from the engine's warm table, not the segment path"), true
		}
	}
	b.record(o.class, el, rerr, wrong)
	if tr != nil && rerr == nil {
		tr.noteClient(o.class, el, delta)
		if err := tr.replay(c, o, el); err != nil {
			return el, false, fmt.Errorf("traced %s: %w", o.class, err)
		}
	}
	if rerr != nil && !wrong {
		if err := c.reset(); err != nil {
			return el, false, err
		}
	}
	return el, rerr == nil, nil
}

// subscribeOnce runs and books one subscription.
func (b *bench) subscribeOnce(c *client, tr *tracer) error {
	first, total, wrong, err := c.subscribe(b.cfg.seed,
		func() int { return int(b.eventsAcked.Load()) },
		func() int { return int(b.eventsSent.Load()) })
	b.record(classSubscribe, total, err, wrong)
	if err != nil {
		if !wrong {
			return c.reset()
		}
		return nil
	}
	b.mu.Lock()
	b.firstWindow = append(b.firstWindow, float64(first.Nanoseconds())/1e6)
	b.mu.Unlock()
	if tr != nil {
		tr.noteSubscribe(first, total)
	}
	return nil
}
