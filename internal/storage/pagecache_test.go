package storage

import (
	"path/filepath"
	"testing"
)

// TestPageCache pins the store's one page cache, keyed by (segment
// file, column): projections share pages, a flush leaves its segment
// warm, purges leave no page of a deleted file, and a read that raced a
// purge does not re-insert.
func TestPageCache(t *testing.T) {
	t.Run("SharedPagesReadOnce", testPageCacheSharesPages)
	t.Run("WarmAfterFlush", testPageCacheWarmAfterFlush)
	t.Run("PurgedWithDeletedFiles", testPageCachePurged)
	t.Run("RacedPurgeNotReinserted", testPageCacheRacedPurge)
}

// cachedFilesNotIn lists the cached pages whose file the store's
// manifest no longer names.
func cachedFilesNotIn(st *Store) []pageKey {
	st.mu.RLock()
	defer st.mu.RUnlock()
	live := st.man.segmentFiles()
	var dead []pageKey
	for k := range st.pages {
		if !live[k.file] {
			dead = append(dead, k)
		}
	}
	return dead
}

// flushedStore opens a store holding n flushed segments of
// lowCardTable rows (dictionary and run-length pages) in dataset "d".
func flushedStore(t *testing.T, n int) *Store {
	t.Helper()
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	for i := 0; i < n; i++ {
		if err := st.Append("d", lowCardTable(500)); err != nil {
			t.Fatal(err)
		}
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// testPageCacheSharesPages pins the (file, column) key: a page read for
// one projection serves every later projection that shares the column,
// so only the pages not yet cached are read from disk — not the header,
// not the meta block, not the shared page.
func testPageCacheSharesPages(t *testing.T) {
	st := flushedStore(t, 1)
	st.DropSegmentCache()
	refs, _, _ := st.Segments("d")
	ref := refs[0]
	lay, _, metaBytes, err := readSegmentFile(filepath.Join(st.Dir(), ref.File), nil, []int{}, nil)
	if err != nil {
		t.Fatal(err)
	}

	// An empty projection reads the header and meta block, no page.
	before := st.BytesRead()
	if _, err := st.ReadSegmentEncoded("d", ref, []int{}); err != nil {
		t.Fatal(err)
	}
	if got := st.BytesRead() - before; got != metaBytes {
		t.Fatalf("empty projection read %d bytes, want the %d of header and meta", got, metaBytes)
	}

	first, err := st.ReadSegmentEncoded("d", ref, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	before = st.BytesRead()
	second, err := st.ReadSegmentEncoded("d", ref, []int{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := st.BytesRead()-before, int64(lay.refs[1].length); got != want {
		t.Fatalf("second projection read %d bytes, want only page 1's %d", got, want)
	}
	if second.Cols[0] != first.Cols[1] {
		t.Fatal("shared column 2 was parsed twice")
	}

	// Every page is now cached parsed: a repeat read and a full-width
	// decoding read (materializing the parsed pages) touch no disk.
	before = st.BytesRead()
	if _, err := st.ReadSegmentEncoded("d", ref, []int{1, 0, 2}); err != nil {
		t.Fatal(err)
	}
	full, err := st.ReadSegment("d", ref)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.BytesRead() - before; got != 0 {
		t.Fatalf("reads of cached pages read %d bytes from disk", got)
	}
	if full.NumRows() != 500 || full.NumCols() != 3 {
		t.Fatalf("full read is %dx%d, want 500x3", full.NumRows(), full.NumCols())
	}
}

// testPageCacheWarmAfterFlush: a flush caches the table it wrote as the
// new file's decoded pages, so the first read is a hit.
func testPageCacheWarmAfterFlush(t *testing.T) {
	st := flushedStore(t, 1)
	refs, _, _ := st.Segments("d")
	hits, misses := metSegCacheHit.Value(), metSegCacheMiss.Value()
	before := st.BytesRead()
	got, err := st.ReadSegment("d", refs[0])
	if err != nil {
		t.Fatal(err)
	}
	if metSegCacheHit.Value()-hits != 1 || metSegCacheMiss.Value() != misses {
		t.Fatalf("read after flush: %d hits, %d misses; want one hit",
			metSegCacheHit.Value()-hits, metSegCacheMiss.Value()-misses)
	}
	if st.BytesRead() != before {
		t.Fatal("read after flush touched disk")
	}
	if got.NumRows() != 500 {
		t.Fatalf("read after flush: %d rows, want 500", got.NumRows())
	}
}

// testPageCachePurged: compaction and an applied replicated manifest
// delete segment files; no cached page of a deleted file may survive
// them.
func testPageCachePurged(t *testing.T) {
	warm := func(st *Store) {
		t.Helper()
		refs, _, _ := st.Segments("d")
		for _, ref := range refs {
			if _, err := st.ReadSegmentEncoded("d", ref, []int{0, 1}); err != nil {
				t.Fatal(err)
			}
			if _, err := st.ReadSegment("d", ref); err != nil {
				t.Fatal(err)
			}
		}
	}

	primary := flushedStore(t, 3)
	warm(primary)
	stats, err := primary.Compact(CompactOptions{MinSegments: 2})
	if err != nil || stats.Merged != 3 {
		t.Fatalf("compaction merged %d segments (err %v), want 3", stats.Merged, err)
	}
	if dead := cachedFilesNotIn(primary); len(dead) > 0 {
		t.Fatalf("compaction left cached pages of deleted files: %v", dead)
	}

	// A follower warms its cache on the three-segment generation, then
	// applies the compacted one.
	follower, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	follower.SetReplica(true)
	source := flushedStore(t, 3)
	replicate := func() {
		t.Helper()
		_, raw := source.EncodedManifest()
		refs, _, _ := source.Segments("d")
		for _, ref := range refs {
			data, err := source.SegmentFileBytes(ref.File)
			if err != nil {
				t.Fatal(err)
			}
			if err := follower.PutReplicatedSegment(ref.File, data); err != nil {
				t.Fatal(err)
			}
		}
		if err := follower.ApplyReplicatedManifest(raw); err != nil {
			t.Fatal(err)
		}
	}
	replicate()
	warm(follower)
	if _, err := source.Compact(CompactOptions{MinSegments: 2}); err != nil {
		t.Fatal(err)
	}
	replicate()
	if dead := cachedFilesNotIn(follower); len(dead) > 0 {
		t.Fatalf("applied manifest left cached pages of deleted files: %v", dead)
	}
	warm(follower) // and the follower still reads the merged generation
}

// testPageCacheRacedPurge: a read that snapshotted the cache generation
// before a purge must not insert its pages after it — they may belong to
// a file the purge just deleted.
func testPageCacheRacedPurge(t *testing.T) {
	st := flushedStore(t, 1)
	st.DropSegmentCache()
	refs, _, _ := st.Segments("d")
	st.mu.RLock()
	gen := st.cacheGen
	st.mu.RUnlock()
	lay, cols, n, err := readSegmentFile(filepath.Join(st.Dir(), refs[0].File), nil, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	st.DropSegmentCache() // the purge lands while the read is in flight
	st.storePages(refs[0].File, gen, lay, []int{0}, []cachedPage{{enc: cols[0]}}, []int{0}, false, n)
	st.mu.RLock()
	cached := len(st.pages)
	st.mu.RUnlock()
	if cached != 0 {
		t.Fatalf("read that raced a purge re-inserted %d pages", cached)
	}

	// The same insert without the purge does cache: the guard, not a
	// broken insert, kept the cache empty above.
	st.mu.RLock()
	gen = st.cacheGen
	st.mu.RUnlock()
	st.storePages(refs[0].File, gen, lay, []int{0}, []cachedPage{{enc: cols[0]}}, []int{0}, false, n)
	st.mu.RLock()
	cached = len(st.pages)
	st.mu.RUnlock()
	if cached != 1 {
		t.Fatalf("unraced insert cached %d pages, want 1", cached)
	}
}
