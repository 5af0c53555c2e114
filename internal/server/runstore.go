package server

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"uucs/internal/core"
	"uucs/internal/pool"
)

// The run store. Uploaded runs are kept in journal order as a log: a
// prefix of decoded runs, then binary batches (core.AppendRunsBinary)
// in pointer-free arena chunks, each indexed by a 16-byte batchRef. An
// upload's batch is copied into the last chunk, or into a fresh one. A
// batch that replay found in a state file is not copied: the store
// takes the bytes replay read from that file as a chunk of its own
// (addIn), sealed by its capacity so no later append writes into it,
// and indexes the batch where it lies. From then on the store owns
// those bytes, and nothing else writes them. A run so costs its binary
// size, about 89 bytes, plus the index entry, plus, after a restart,
// its share of the file's other bytes (frame headers, registrations,
// testcases); a decoded run costs about ten times that. The cluster
// merge reads the journals, not the store, and a node's periodic
// readers, the export and the snapshot aggregate, go through scan,
// which keeps nothing it decodes. Results goes through decodeAll,
// which decodes the batches still held as bytes once: the decoded runs
// replace the bytes, so each batch is held in one form (at chunk
// granularity) and each run is decoded at most once.
//
// Locks: mu guards the log; it is the innermost state lock (regMu <
// tcMu < shard.mu < runs.mu). decMu serializes decodeAll calls, which
// take mu only to list the batches to decode and to swap the decoded
// runs in, and decode in between without it, so an upload's append
// never waits for a decode. decMu is taken before mu and never while
// holding any other state lock. A scan takes mu only to list.

// arenaChunkBytes is the size of one arena chunk; a larger batch gets
// a chunk of its own.
const arenaChunkBytes = 32 << 10

// decodeBlockBatches is how many pending batches one piece covers.
const decodeBlockBatches = 64

// testHookDecoding, when non-nil, runs when a read starts decoding
// outside mu — the window in which uploads must keep landing. Tests
// use it to hold that window open.
var testHookDecoding func()

// batchRef locates one binary batch in the arena.
type batchRef struct {
	chunk, off, len uint32 // chunks[chunk][off : off+len]
	runs            uint32
}

// runStore is the server's uploaded-run log.
type runStore struct {
	mu sync.Mutex
	// decoded is the decoded prefix, in arrival order. Only decoders
	// replace it, under both locks; its elements never change, so a
	// holder of decMu may read it without mu.
	decoded []*core.Run
	// pending are the batches after the prefix, in arrival order.
	pending []batchRef
	// chunks is the arena; new batches go into the last chunk. A chunk
	// whose batches are all decoded is dropped (set to nil):
	// chunks[:first] are all dropped.
	chunks [][]byte
	first  int
	// held counts every run in the log, undecoded those in pending.
	held, undecoded int

	decMu sync.Mutex
}

// add appends a binary batch of n runs, copying it into the arena. The
// caller holds mu.
func (st *runStore) add(batch []byte, n int) {
	if n == 0 {
		return
	}
	last := len(st.chunks) - 1
	if last < 0 || cap(st.chunks[last])-len(st.chunks[last]) < len(batch) {
		st.chunks = append(st.chunks, make([]byte, 0, max(arenaChunkBytes, len(batch))))
		last++
	}
	c := st.chunks[last]
	st.index(last, len(c), len(batch), n)
	st.chunks[last] = append(c, batch...)
}

// addIn appends a binary batch of n runs that is file[off:off+size]
// without copying it: unless the last chunk already is file, the store
// takes file as a new chunk, full to its capacity, so that add never
// appends into it. The caller holds mu and hands file over: nothing
// may write it again. Chunks stay in log order, so a file whose binary
// batches alternate with copied ones is taken once per run of its
// batches; a take is a slice header, not a copy.
func (st *runStore) addIn(file []byte, off, size, n int) {
	if n == 0 {
		return
	}
	if len(file) > math.MaxUint32 { // past what a batchRef can locate
		st.add(file[off:off+size], n)
		return
	}
	last := len(st.chunks) - 1
	if last < 0 || !sameBytes(st.chunks[last], file) {
		st.chunks = append(st.chunks, file[:len(file):len(file)])
		last++
	}
	st.index(last, off, size, n)
}

// index appends the entry of a batch of n runs at chunks[chunk][off:off+size].
// The index doubles when full, where append would grow a long one by a
// quarter: a restart appends an entry for every batch of the journal,
// and quarter steps allocate about five times the final index on the
// way.
func (st *runStore) index(chunk, off, size, n int) {
	if len(st.pending) == cap(st.pending) {
		st.pending = slices.Grow(st.pending, max(len(st.pending), 64))
	}
	st.pending = append(st.pending, batchRef{chunk: uint32(chunk), off: uint32(off), len: uint32(size), runs: uint32(n)})
	st.held += n
	st.undecoded += n
}

// sameBytes reports whether a and b are the same bytes of one array.
func sameBytes(a, b []byte) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

// counts returns how many runs the log holds, and how many of them are
// still binary.
func (st *runStore) counts() (held, undecoded int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.held, st.undecoded
}

// batchView is one pending batch: its bytes and its run count.
type batchView struct {
	data []byte
	runs int
}

// cut returns the runs that make up the first n runs of the log (all of
// them when n < 0; n falls on a batch boundary, as every held count
// does): the decoded runs among them, then views of the batches still
// held as bytes. The views are taken under mu and stay valid without
// it: appends may grow the last chunk but never touch bytes already in
// it, and a dropped chunk lives on while a view refers to it. Neither
// does prefix change: decoders only write past its end.
func (st *runStore) cut(n int) (prefix []*core.Run, views []batchView) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if n < 0 {
		n = st.held
	}
	if n <= len(st.decoded) {
		return st.decoded[:n], nil
	}
	for at := len(st.decoded); at < n; {
		ref := st.pending[len(views)]
		views = append(views, batchView{st.chunks[ref.chunk][ref.off : ref.off+ref.len], int(ref.runs)})
		at += int(ref.runs)
	}
	return st.decoded, views
}

// appendDecoded appends the runs of the batches to dst.
func appendDecoded(dst []*core.Run, views []batchView) []*core.Run {
	for _, v := range views {
		batch, err := core.ParseRunsBinary(v.data)
		if err != nil {
			// Every batch was checked (replay) or encoded from decoded
			// runs (uploads) before it was stored.
			panic(fmt.Sprintf("server: run store holds an undecodable batch: %v", err))
		}
		dst = append(dst, batch...)
	}
	return dst
}

// decodeAll returns every run of the log, decoding the batches still
// held as bytes on GOMAXPROCS goroutines and keeping the decoded runs
// in their place. The returned slice is the caller's.
func (st *runStore) decodeAll() []*core.Run {
	st.decMu.Lock()
	defer st.decMu.Unlock()
	prefix, views := st.cut(-1)
	if len(views) == 0 {
		return slices.Clone(prefix)
	}
	if testHookDecoding != nil {
		testHookDecoding()
	}
	n := 0
	for _, v := range views {
		n += v.runs
	}
	// Only decoders touch the prefix's spare capacity, so it can grow
	// in place. The pieces return no error: appendDecoded panics on a
	// batch it cannot decode, which only a bug can store.
	runs := slices.Grow(prefix, n)
	_ = pieces(nil, views, nil, func(p *runPiece) error {
		runs = append(runs, p.runs...)
		return nil
	})

	st.mu.Lock()
	st.decoded = runs
	st.undecoded -= n
	if rest := st.pending[len(views):]; len(rest) > 0 {
		// Drop the chunks no pending batch is in.
		st.pending = rest
		keep := int(rest[0].chunk)
		clear(st.chunks[st.first:keep])
		st.first = keep
	} else {
		// Nothing pending: drop the whole arena, the active chunk too;
		// the next batch starts a fresh one.
		st.pending, st.chunks, st.first = nil, nil, 0
	}
	st.mu.Unlock()
	return slices.Clone(runs)
}

// scan hands the first n runs of the log (all of them when n < 0; n on
// a batch boundary) to emit in order, a piece at a time (pieces), and
// leaves the log as it was: runs it decodes are not kept. It takes no
// decMu: it only reads, and runs alongside uploads and reads.
func (st *runStore) scan(n int, work func(*runPiece), emit func(*runPiece) error) error {
	prefix, views := st.cut(n)
	return pieces(prefix, views, work, emit)
}

// runPiece is one piece of a scan: consecutive runs of the log, and
// scratch for the scan's work function.
type runPiece struct {
	runs  []*core.Run
	views []batchView // the batches runs is decoded from; none for decoded runs
	dec   []*core.Run // runs' backing store when decoded here
	buf   []byte
}

// scanPieceRuns is how many already-decoded runs one piece covers.
const scanPieceRuns = 512

// pieces hands decoded, then the runs of views, to emit in order, a
// piece at a time. Pieces are prepared on GOMAXPROCS goroutines
// through pool.Ordered, so at most 2×GOMAXPROCS pieces are held at
// once however many runs there are: a piece of
// decodeBlockBatches batches is decoded there, then work, if not nil,
// runs on it. A piece's runs are valid until emit returns. The first
// emit error stops the pieces and is returned.
func pieces(decoded []*core.Run, views []batchView, work func(*runPiece), emit func(*runPiece) error) error {
	return pool.Ordered(0, make([]runPiece, 2*runtime.GOMAXPROCS(0)),
		func(p *runPiece) bool {
			p.views = nil
			switch {
			case len(decoded) > 0:
				k := min(len(decoded), scanPieceRuns)
				p.runs, decoded = decoded[:k], decoded[k:]
			case len(views) > 0:
				k := min(len(views), decodeBlockBatches)
				p.views, views = views[:k], views[k:]
			default:
				return false
			}
			return true
		},
		func(p *runPiece) {
			if p.views != nil {
				p.dec = appendDecoded(p.dec[:0], p.views)
				p.runs = p.dec
			}
			if work != nil {
				work(p)
			}
		},
		emit)
}
