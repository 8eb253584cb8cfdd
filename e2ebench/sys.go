package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// heapSampler tracks the peak live heap: the bytes the most recent GC
// cycle marked live, read from runtime/metrics every few milliseconds
// until stopped. Unlike the heap's size it leaves out garbage awaiting
// collection, whose amount depends on where GC cycles happen to fall.
type heapSampler struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	peak  atomic.Int64
}

const heapLive = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: heapLive}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			v := int64(s[0].Value.Uint64())
			for p := h.peak.Load(); v > p && !h.peak.CompareAndSwap(p, v); p = h.peak.Load() {
			}
			select {
			case <-h.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// takePeak returns the peak in bytes since the last call and starts
// the next period.
func (h *heapSampler) takePeak() int64 { return h.peak.Swap(0) }

// stop ends sampling.
func (h *heapSampler) stop() {
	close(h.stopc)
	h.wg.Wait()
}

// gcStats are cumulative runtime counters; sub gives a run's share.
type gcStats struct {
	gcCPU, totalCPU float64
	cycles          uint64
}

func readGCStats() gcStats {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return gcStats{
		gcCPU:    s[0].Value.Float64(),
		totalCPU: s[1].Value.Float64(),
		cycles:   s[2].Value.Uint64(),
	}
}

func (a gcStats) sub(b gcStats) gcStats {
	return gcStats{a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU, a.cycles - b.cycles}
}

// cpuFrac is the share of the process's CPU time spent in the GC.
func (a gcStats) cpuFrac() float64 { return finite(a.gcCPU / a.totalCPU) }

// cpuTicks are the machine's cumulative CPU time counters from
// /proc/stat: all time, and time stolen by the hypervisor.
type cpuTicks struct{ total, steal int64 }

// readCPUTicks reads /proc/stat; ok is false where it does not exist.
func readCPUTicks() (cpuTicks, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}, false
	}
	var t cpuTicks
	for i, v := range f[1:9] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return cpuTicks{}, false
		}
		t.total += n
		if i == 7 {
			t.steal = n
		}
	}
	return t, true
}

// stealShare is the share of the machine's CPU time the hypervisor
// gave to others since before; -1 when unknown. On a shared machine it
// says how much of a run's spread came from outside the program.
func stealShare(before cpuTicks, ok bool) float64 {
	after, ok2 := readCPUTicks()
	if !ok || !ok2 || after.total <= before.total {
		return -1
	}
	return float64(after.steal-before.steal) / float64(after.total-before.total)
}

// fingerprint describes the run: seed, scheduler width, toolchain, the
// code measured and the machine.
func fingerprint(seed int64) string {
	return fmt.Sprintf("seed=%d gomaxprocs=%d go=%s commit=%s cores=%d os=%s/%s",
		seed, runtime.GOMAXPROCS(0), runtime.Version(), commit(), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH)
}

// commit names the code under test: the git HEAD when the checkout is a
// git work tree, otherwise a digest of every Go source and module file
// in it (benchmark checkouts need not be repositories).
func commit() string {
	if head, err := gitHead("."); err == nil {
		return head
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.Type().IsRegular() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", path)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// gitHead resolves .git/HEAD to a commit hash without running git.
func gitHead(root string) (string, error) {
	b, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "", err
	}
	head := strings.TrimSpace(string(b))
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		return head, nil
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b)), nil
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash, nil
		}
	}
	return "", fmt.Errorf("ref %s not found", ref)
}
