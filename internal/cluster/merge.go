package cluster

import (
	"bufio"
	"container/heap"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"uucs/internal/core"
	"uucs/internal/pool"
	"uucs/internal/server"
)

// Deterministic journal merge: fold any set of per-node state
// directories — primaries, replicas, dead nodes' leftovers, in any
// order, with arbitrarily duplicated shipped segments — into the exact
// run dataset a single fault-free server would hold.
//
// Determinism rests on three facts:
//
//   - Every sequenced upload is keyed by (client id, batch seq), ids
//     are topology-independent, and a client is pinned to one primary,
//     so every copy of a given (id, seq) op — primary journal, shipped
//     replica, bootstrap re-ship — carries identical payload bytes.
//     The merge keeps the first copy and drops the rest.
//   - A compacted snapshot records, per client, the highest seq it
//     folded (LastSeq). The merge takes the max floor per client
//     across all sources and drops raw ops at or under it, so a
//     snapshot aggregate and the raw journals it summarizes never
//     double-count.
//   - The output is canonicalized: each run is encoded individually
//     and the encodings emitted in sorted order, so the bytes depend
//     only on the set of runs, never on node count, scan order, or
//     merge order.
//
// The merge streams in bounded memory: parallel workers scan sources
// and encode kept runs into per-worker sorted chunks; a chunk that
// outgrows MergeOptions.SpillBytes is spilled to a temp file; the
// final pass is a k-way heap merge over all chunk cursors — in-memory
// and spilled alike — emitting records in ascending order. The k-way
// merge of sorted sequences produces the globally sorted sequence, so
// its output is byte-identical to the old collect-all + sort.Strings
// at any worker count, spill threshold, or source order. Dedup runs
// under one mutex shared by all scan workers; it is order-independent
// because every copy of a key carries identical bytes, so which worker
// wins a race changes nothing about what is kept.

// MergeStats accounts for what a merge kept and dropped.
type MergeStats struct {
	// Sources is how many state directories were scanned.
	Sources int `json:"sources"`
	// Batches is how many distinct sequenced upload batches were kept.
	Batches int `json:"batches"`
	// DupBatches is how many duplicate copies of kept batches were
	// dropped (replica overlap, retried segments, dead-primary dirs).
	DupBatches int `json:"dup_batches"`
	// Covered is how many raw batches were dropped as already folded
	// into a compacted snapshot aggregate.
	Covered int `json:"covered"`
	// Aggregates is how many compacted (unsequenced) payloads were
	// kept; DupAggregates how many duplicate copies were dropped.
	Aggregates    int `json:"aggregates"`
	DupAggregates int `json:"dup_aggregates"`
	// Runs is the size of the merged dataset.
	Runs int `json:"runs"`
	// Spills is how many sorted chunks overflowed to temp files during
	// the merge; SpilledBytes is how much encoded data they carried.
	// Zero means the whole merge ran in memory.
	Spills       int   `json:"spills"`
	SpilledBytes int64 `json:"spilled_bytes"`
}

// MergeOptions tunes the streaming merge. The zero value is the
// default configuration; no option changes the output bytes. The scan
// runs on up to GOMAXPROCS workers.
type MergeOptions struct {
	// SpillBytes bounds one worker's in-memory sorted chunk; a chunk
	// reaching it is spilled to a temp file (0 means 32MB).
	SpillBytes int
	// TempDir is where spill files go ("" means os.TempDir).
	TempDir string
}

const defaultSpillBytes = 32 << 20

// batchKey identifies one sequenced upload batch.
type batchKey struct {
	id  string
	seq uint64
}

// aggKey identifies one piece of an unsequenced aggregate: its content
// hash and chunk index.
type aggKey struct {
	hash uint64
	part int
}

// chunk is one worker's in-memory run of (encoding, run) pairs, sorted
// before merge. Spilling keeps only the encodings.
type chunk struct {
	encs  []string
	runs  []*core.Run
	bytes int
	buf   []byte // the worker's encode buffer, reused for every run
}

func (c *chunk) Len() int           { return len(c.encs) }
func (c *chunk) Less(i, j int) bool { return c.encs[i] < c.encs[j] }
func (c *chunk) Swap(i, j int) {
	c.encs[i], c.encs[j] = c.encs[j], c.encs[i]
	c.runs[i], c.runs[j] = c.runs[j], c.runs[i]
}

// mergeCursor walks one sorted chunk — in memory or spilled — during
// the k-way merge. cur/curRun hold the record at the cursor; curRun is
// nil for spilled records (the encoding is the record of truth; a
// consumer that needs the run decodes it).
type mergeCursor struct {
	ord    int // tie-break: earlier cursors win equal keys
	cur    string
	curRun *core.Run

	// In-memory chunk.
	mem *chunk
	idx int

	// Spilled chunk.
	r    *bufio.Reader
	f    *os.File
	sbuf []byte
}

// advance loads the next record, reporting false at end of chunk.
func (cu *mergeCursor) advance() (bool, error) {
	if cu.mem != nil {
		if cu.idx >= len(cu.mem.encs) {
			return false, nil
		}
		cu.cur, cu.curRun = cu.mem.encs[cu.idx], cu.mem.runs[cu.idx]
		cu.idx++
		return true, nil
	}
	n, err := binary.ReadUvarint(cu.r)
	if err == io.EOF {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("cluster: merge spill read: %w", err)
	}
	if uint64(cap(cu.sbuf)) < n {
		cu.sbuf = make([]byte, n)
	}
	cu.sbuf = cu.sbuf[:n]
	if _, err := io.ReadFull(cu.r, cu.sbuf); err != nil {
		return false, fmt.Errorf("cluster: merge spill read: %w", err)
	}
	cu.cur, cu.curRun = string(cu.sbuf), nil
	return true, nil
}

// cursorHeap is a min-heap of cursors keyed by their current record.
type cursorHeap []*mergeCursor

func (h cursorHeap) Len() int { return len(h) }
func (h cursorHeap) Less(i, j int) bool {
	if h[i].cur != h[j].cur {
		return h[i].cur < h[j].cur
	}
	return h[i].ord < h[j].ord
}
func (h cursorHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *cursorHeap) Push(x any)   { *h = append(*h, x.(*mergeCursor)) }
func (h *cursorHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// mergeInto is the merge engine: it scans dirs on up to GOMAXPROCS
// pool workers and emits every kept run's canonical encoding in globally
// sorted order. run is non-nil when the decoded form survived in
// memory; a spilled record arrives with run == nil.
func mergeInto(dirs []string, opt MergeOptions, emit func(enc string, run *core.Run) error) (MergeStats, error) {
	var st MergeStats
	st.Sources = len(dirs)
	spillBytes := opt.SpillBytes
	if spillBytes <= 0 {
		spillBytes = defaultSpillBytes
	}

	// Pass 1: per-client snapshot floors — the highest batch seq any
	// source's compaction has folded away. Must complete before any
	// source's raw ops are judged, hence the barrier between passes.
	var (
		floors = make(map[string]uint64)
		mu     sync.Mutex
	)
	if err := pool.Run(0, len(dirs), func(i int) error {
		return scanDir(dirs[i], func(op server.StateOp) error {
			if op.Op == server.OpKindClient && op.LastSeq > 0 {
				mu.Lock()
				if op.LastSeq > floors[op.ID] {
					floors[op.ID] = op.LastSeq
				}
				mu.Unlock()
			}
			return nil
		})
	}); err != nil {
		return st, err
	}

	// Pass 2: collect every run exactly once into per-worker sorted
	// chunks, spilling oversized chunks to disk. Each worker's chunk is
	// its pool scratch.
	var (
		seen    = make(map[batchKey]struct{})
		aggSeen = make(map[aggKey]struct{})
		chunks  []*chunk
		spills  []*os.File
		spillMu sync.Mutex
	)
	defer func() {
		for _, f := range spills {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	spill := func(c *chunk) error {
		sort.Sort(c)
		f, err := os.CreateTemp(opt.TempDir, "uucs-merge-*.spill")
		if err != nil {
			return err
		}
		w := bufio.NewWriter(f)
		var lb [binary.MaxVarintLen64]byte
		var written int64
		for _, enc := range c.encs {
			n := binary.PutUvarint(lb[:], uint64(len(enc)))
			w.Write(lb[:n])
			if _, err := w.WriteString(enc); err != nil {
				f.Close()
				os.Remove(f.Name())
				return err
			}
			written += int64(n + len(enc))
		}
		if err := w.Flush(); err != nil {
			f.Close()
			os.Remove(f.Name())
			return err
		}
		spillMu.Lock()
		spills = append(spills, f)
		st.Spills++
		st.SpilledBytes += written
		spillMu.Unlock()
		c.encs, c.runs, c.bytes = nil, nil, 0
		return nil
	}
	newChunk := func() *chunk {
		c := &chunk{}
		mu.Lock()
		chunks = append(chunks, c)
		mu.Unlock()
		return c
	}
	keep := func(c *chunk, op server.StateOp) error {
		if op.Op != server.OpKindResults {
			return nil
		}
		mu.Lock()
		if op.ID != "" && op.Seq > 0 {
			if op.Seq <= floors[op.ID] {
				st.Covered++
				mu.Unlock()
				return nil
			}
			k := batchKey{op.ID, op.Seq}
			if _, dup := seen[k]; dup {
				st.DupBatches++
				mu.Unlock()
				return nil
			}
			seen[k] = struct{}{}
			st.Batches++
		} else {
			// Unsequenced payload: a compacted aggregate. Its identity
			// is its content (the same aggregate reappears wherever a
			// snapshot's bytes were shipped or copied); a chunk's is
			// the whole aggregate's content plus its index, and the
			// aggregate is counted once, at chunk 0.
			hash, part := op.AggregateKey()
			k := aggKey{hash, part}
			if _, dup := aggSeen[k]; dup {
				if k.part == 0 {
					st.DupAggregates++
				}
				mu.Unlock()
				return nil
			}
			aggSeen[k] = struct{}{}
			if k.part == 0 {
				st.Aggregates++
			}
		}
		mu.Unlock()

		// Kept: decode once, encode each run individually into this
		// worker's chunk. No lock held — this is the expensive part and
		// it parallelizes across sources.
		runs, err := op.Runs()
		if err != nil {
			return err
		}
		mu.Lock()
		st.Runs += len(runs)
		mu.Unlock()
		for _, r := range runs {
			c.buf = core.AppendRuns(c.buf[:0], []*core.Run{r}, true)
			c.encs = append(c.encs, string(c.buf))
			c.runs = append(c.runs, r)
			c.bytes += len(c.buf)
		}
		if c.bytes >= spillBytes {
			return spill(c)
		}
		return nil
	}
	if err := pool.RunScratch(0, len(dirs), newChunk, func(i int, c *chunk) error {
		return scanDir(dirs[i], func(op server.StateOp) error { return keep(c, op) })
	}); err != nil {
		return st, err
	}

	// Final pass: k-way heap merge over every chunk cursor. Each input
	// is sorted, so the heap emits the globally sorted sequence — the
	// exact byte stream a serial collect-all + sort would produce.
	// The in-memory chunks are sorted on the pool.
	_ = pool.Run(0, len(chunks), func(i int) error {
		sort.Sort(chunks[i])
		return nil
	})
	var cursors []*mergeCursor
	for _, c := range chunks {
		if len(c.encs) > 0 {
			cursors = append(cursors, &mergeCursor{mem: c})
		}
	}
	for _, f := range spills {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return st, err
		}
		cursors = append(cursors, &mergeCursor{f: f, r: bufio.NewReader(f)})
	}
	h := make(cursorHeap, 0, len(cursors))
	for i, cu := range cursors {
		cu.ord = i
		ok, err := cu.advance()
		if err != nil {
			return st, err
		}
		if ok {
			h = append(h, cu)
		}
	}
	heap.Init(&h)
	for h.Len() > 0 {
		cu := h[0]
		if err := emit(cu.cur, cu.curRun); err != nil {
			return st, err
		}
		ok, err := cu.advance()
		if err != nil {
			return st, err
		}
		if ok {
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	return st, nil
}

// MergeDirs merges the given state directories and writes the
// canonical dataset (text run records, load columns included) to w.
// The output is byte-identical for any permutation of dirs and any
// duplication among them.
func MergeDirs(w io.Writer, dirs []string) (MergeStats, error) {
	return MergeDirsOpts(w, dirs, MergeOptions{})
}

// MergeDirsOpts is MergeDirs with explicit streaming options.
func MergeDirsOpts(w io.Writer, dirs []string, opt MergeOptions) (MergeStats, error) {
	bw := bufio.NewWriter(w)
	st, err := mergeInto(dirs, opt, func(enc string, _ *core.Run) error {
		_, werr := bw.WriteString(enc)
		return werr
	})
	if err != nil {
		return st, err
	}
	return st, bw.Flush()
}

// scanDir walks one state directory's files in replay order: snapshot,
// sealed journal segments, then the active journal. Only the active
// journal may carry a torn tail; tearing anywhere else is corruption.
func scanDir(dir string, fn func(server.StateOp) error) error {
	files, err := server.StateFiles(dir)
	if err != nil {
		return fmt.Errorf("cluster: merge %s: %w", dir, err)
	}
	for i, path := range files {
		if err := server.ScanStateOps(path, i == len(files)-1, fn); err != nil {
			return fmt.Errorf("cluster: merge %s: %w", path, err)
		}
	}
	return nil
}

// DiscoverStateDirs walks root and returns, sorted, every directory
// that holds server state (a journal, a sealed segment, or a snapshot
// file) — node directories and the replica directories nested under
// them alike.
func DiscoverStateDirs(root string) ([]string, error) {
	seen := make(map[string]struct{})
	var dirs []string
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() || !server.IsStateFileName(filepath.Base(path)) {
			return nil
		}
		dir := filepath.Dir(path)
		if _, dup := seen[dir]; !dup {
			seen[dir] = struct{}{}
			dirs = append(dirs, dir)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// MergeTree discovers every state directory under root and merges
// them. This is the uucs-analyze/uucs-harvest entry point: point it at
// a cluster's state root and out comes the dataset.
func MergeTree(w io.Writer, root string) (MergeStats, error) {
	return MergeTreeOpts(w, root, MergeOptions{})
}

// MergeTreeOpts is MergeTree with explicit streaming options.
func MergeTreeOpts(w io.Writer, root string, opt MergeOptions) (MergeStats, error) {
	dirs, err := DiscoverStateDirs(root)
	if err != nil {
		return MergeStats{}, err
	}
	if len(dirs) == 0 {
		return MergeStats{}, fmt.Errorf("cluster: no state directories under %s", root)
	}
	return MergeDirsOpts(w, dirs, opt)
}

// MergedRuns merges the tree under root and returns the dataset's
// decoded runs, folding them directly off the merge stream — no
// whole-dataset text round trip. Only spilled records are re-decoded;
// records that stayed in memory reuse the run decoded during the scan.
func MergedRuns(root string) ([]*core.Run, MergeStats, error) {
	return MergedRunsOpts(root, MergeOptions{})
}

// MergedRunsOpts is MergedRuns with explicit streaming options.
func MergedRunsOpts(root string, opt MergeOptions) ([]*core.Run, MergeStats, error) {
	dirs, err := DiscoverStateDirs(root)
	if err != nil {
		return nil, MergeStats{}, err
	}
	if len(dirs) == 0 {
		return nil, MergeStats{}, fmt.Errorf("cluster: no state directories under %s", root)
	}
	var out []*core.Run
	st, err := mergeInto(dirs, opt, func(enc string, run *core.Run) error {
		if run == nil {
			runs, err := core.ParseRuns([]byte(enc))
			if err != nil {
				return err
			}
			out = append(out, runs...)
			return nil
		}
		out = append(out, run)
		return nil
	})
	return out, st, err
}
