package server

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"uucs/internal/atomicfile"
	"uucs/internal/telemetry"
)

// Group-commit journaling. PR 2 made every accepted op durable before
// its ack by running a synchronous marshal + write + fsync under the
// server's one big lock — correct, but it priced every message at a
// full disk flush. The journalWriter below keeps the guarantee and
// amortizes the flush: appenders enqueue pre-marshaled ops and block on
// a per-op done channel; a single writer goroutine drains whatever has
// queued up, writes it as one buffered append, calls fsync once, and
// only then releases every op the flush covered. Under K concurrent
// clients the fsync cost is paid once per batch instead of once per op,
// which is where the ingest throughput multiplier comes from.
//
// Correctness hinges on two properties callers rely on:
//
//   - An op's done channel fires only after the fsync covering its
//     bytes returns, so journal-before-ack survives unchanged: nothing
//     is acknowledged that a crash could lose.
//   - Ops are written in enqueue order (single writer, FIFO queue), so
//     a barrier op observes everything enqueued before it, and a
//     client's registration always precedes its uploads on disk
//     because the upload cannot start until the registration's ack —
//     and therefore its fsync — has completed.
//
// A seal (journalWriter.seal) rides the same queue. It ends its commit:
// the ops enqueued before it are written and fsynced, then the active
// file, if it holds any bytes, is sealed into the next numbered segment
// and an empty active file opened, so the ops enqueued after it land in
// that file. SaveState enqueues one under every state lock, which makes
// each journal file either wholly covered by its snapshot or wholly
// past it: compaction only deletes files.
//
// A write or sync failure poisons the writer: the failing batch and
// every later append report the error, so no ack can ever be emitted
// on top of a journal in an unknown state (the fsync-failure stance
// databases take: stop acking rather than guess).

// Journal defaults, overridable via Server.JournalBatch and
// Server.JournalSegmentBytes (-journal-batch and -journal-segment-bytes
// on uucs-server). The writer never waits for a batch to fill: a batch
// is whatever queued while the previous fsync was in flight, which is
// right for closed-loop clients, where waiting would add latency
// without adding throughput.
const (
	defaultJournalBatch = 64
	// defaultJournalSegmentBytes is the rotation threshold when
	// Server.JournalSegmentBytes is zero: the journal is always
	// segmented, so restart replay can fan out across sealed segments.
	defaultJournalSegmentBytes = 64 << 20
)

// batchHistBuckets is the number of power-of-two group-commit batch
// size buckets tracked for observability (1, 2, 3-4, 5-8, ... ops).
const batchHistBuckets = 17

// testHookBeforeJournalSync, when non-nil, runs between a batch's
// buffered write and its fsync — the window in which a crash leaves
// appended-but-unsynced bytes whose fate the page cache decides. A
// non-nil return is treated exactly like an fsync failure, which is how
// crash tests kill the server inside that window.
var testHookBeforeJournalSync func() error

// journalReq is one queued append. A nil data slice is a barrier: it
// carries no bytes but its done channel still fires only after every
// earlier op is durable. A seal is a barrier that also seals the active
// file behind those ops.
type journalReq struct {
	data []byte
	done chan error
	seal bool
	// seq is, once a seal's done fires with nil, the first segment
	// number the seal did not cover: every sealed segment below it holds
	// only ops enqueued before the seal.
	seq int
}

// segInfo names one sealed journal segment on disk.
type segInfo struct {
	path string
	seq  int
}

// journalWriter owns the journal file and the group-commit loop.
type journalWriter struct {
	maxBatch int
	// syncCost, when positive, models a slower storage device by
	// stretching every fsync to at least that long. Group-commit
	// throughput is a function of fsync latency, so measurement rigs
	// (uucs-loadgen) use this to reproduce the paper-era spinning-disk
	// deployment on hardware whose fsync is microseconds.
	syncCost time.Duration
	// ship, when non-nil, replicates each committed batch's bytes to a
	// follower before the batch's acks are released (Server.JournalShip).
	// Called with the coalescing buffer under fmu, so segments arrive at
	// the follower in exact journal append order. A ship failure poisons
	// the writer like an fsync failure: an ack must never claim
	// durability the replica does not have.
	ship func(segment []byte) error

	// qmu guards the append queue.
	qmu    sync.Mutex
	queue  []*journalReq
	closed bool
	err    error // sticky first failure; set under qmu

	kick   chan struct{}
	exited chan struct{}

	// fmu serializes the writer's commits and rotations with readers of
	// the segment list.
	fmu sync.Mutex
	f   *os.File
	// dir is the state directory the journal lives in (segment files
	// are its siblings).
	dir string
	// segBytes seals the active file into a numbered segment once its
	// physical size reaches it.
	segBytes int64
	// segs are the sealed segments still on disk, ascending seq.
	segs []segInfo
	// nextSeq numbers the next segment to seal.
	nextSeq int
	// fsize is the active file's size.
	fsize int64

	wbuf []byte // writer-goroutine-only coalescing buffer

	// crashAfter, when positive, SIGKILLs the process (via crashFn)
	// once opsWritten reaches it — after the buffered write of the
	// batch that crosses the threshold, before its fsync. Test hook
	// only; see Server.CrashAfterJournalOps.
	crashAfter int
	crashFn    func()
	opsWritten uint64 // writer-goroutine-only

	// Observability counters (atomic; read by Server.Stats).
	ops       atomic.Uint64 // non-barrier ops made durable
	fsyncs    atomic.Uint64 // fsync calls issued
	bytesOut  atomic.Uint64 // journal bytes written
	sealed    atomic.Uint64 // segments sealed this life
	batchHist [batchHistBuckets]atomic.Uint64

	// USE collectors (telemetry): queueDepth tracks reqs accepted but
	// not yet taken by the writer, ackBacklog tracks ops written or
	// queued whose ack is still waiting on a covering fsync, flushLat
	// samples the duration of each flush (write+fsync, including any
	// modeled syncCost), and flushBusy accumulates total nanoseconds
	// spent flushing — flushBusy/uptime is the journal device's busy
	// fraction, the single best "is the disk the bottleneck" reading.
	queueDepth telemetry.Gauge
	ackBacklog telemetry.Gauge
	flushLat   telemetry.Ring
	flushBusy  telemetry.Counter
}

// newJournalWriter wraps an append-only journal file. Call go w.run()
// to start the commit loop.
func newJournalWriter(f *os.File, maxBatch int) *journalWriter {
	if maxBatch <= 0 {
		maxBatch = defaultJournalBatch
	}
	return &journalWriter{
		maxBatch: maxBatch,
		f:        f,
		kick:     make(chan struct{}, 1),
		exited:   make(chan struct{}),
	}
}

// enqueue accepts one pre-marshaled op (or a barrier, data == nil) into
// the commit queue and returns its pending handle. It never blocks on
// I/O, so callers may hold state locks across it — that is what makes
// "state visible in memory implies op already enqueued" cheap to
// guarantee.
func (w *journalWriter) enqueue(data []byte) *journalReq {
	return w.push(&journalReq{data: data, done: make(chan error, 1)})
}

// seal enqueues a seal and returns its pending handle. Like enqueue it
// never blocks on I/O, so copyState calls it under every state lock:
// the ops it covers are then exactly those visible in the state copy.
func (w *journalWriter) seal() *journalReq {
	return w.push(&journalReq{seal: true, done: make(chan error, 1)})
}

// push queues r and wakes the writer.
func (w *journalWriter) push(r *journalReq) *journalReq {
	w.qmu.Lock()
	if w.err != nil || w.closed {
		err := w.err
		if err == nil {
			err = fmt.Errorf("server: journal closed")
		}
		w.qmu.Unlock()
		r.done <- err
		return r
	}
	w.queue = append(w.queue, r)
	w.qmu.Unlock()
	w.queueDepth.Add(1)
	if r.data != nil {
		w.ackBacklog.Add(1)
	}
	select {
	case w.kick <- struct{}{}:
	default:
	}
	return r
}

// append enqueues data and blocks until the fsync covering it returns.
func (w *journalWriter) append(data []byte) error {
	return <-w.enqueue(data).done
}

// barrier blocks until every op enqueued before it is durable. The dup
// path uses it: re-acking a batch whose original upload may still be
// mid-group-commit must wait for that commit, or the dup ack would
// claim durability the disk does not yet have.
func (w *journalWriter) barrier() error {
	return <-w.enqueue(nil).done
}

// take grabs the entire pending queue, reporting whether the writer
// should exit (closed and drained).
func (w *journalWriter) take() (batch []*journalReq, exit bool) {
	w.qmu.Lock()
	defer w.qmu.Unlock()
	batch = w.queue
	w.queue = nil
	if len(batch) > 0 {
		w.queueDepth.Add(-int64(len(batch)))
	}
	return batch, batch == nil && w.closed
}

// failed returns the writer's sticky error (nil while healthy) — the
// USE errors reading for journal poison.
func (w *journalWriter) failed() error {
	w.qmu.Lock()
	defer w.qmu.Unlock()
	return w.err
}

// run is the group-commit loop. One goroutine per journalWriter.
func (w *journalWriter) run() {
	defer close(w.exited)
	for range w.kick {
		for {
			batch, exit := w.take()
			if batch == nil {
				if exit {
					return
				}
				break
			}
			for len(batch) > 0 {
				n := min(len(batch), w.maxBatch)
				// A seal ends its commit: the ops after it belong in the
				// file it opens.
				if i := slices.IndexFunc(batch[:n], func(r *journalReq) bool { return r.seal }); i >= 0 {
					n = i + 1
				}
				w.commit(batch[:n])
				batch = batch[n:]
			}
		}
	}
}

// commit writes one batch as a single buffered append, fsyncs once, and
// releases every member; a batch ending in a seal then seals the
// active file. A failure poisons the writer and is reported to the
// whole batch.
func (w *journalWriter) commit(batch []*journalReq) {
	last := batch[len(batch)-1]
	w.qmu.Lock()
	err := w.err
	w.qmu.Unlock()
	if err == nil {
		w.wbuf = w.wbuf[:0]
		ops := 0
		for _, r := range batch {
			if len(r.data) > 0 {
				w.wbuf = append(w.wbuf, r.data...)
				ops++
			}
		}
		if len(w.wbuf) > 0 {
			start := time.Now()
			w.fmu.Lock()
			if _, werr := w.f.Write(w.wbuf); werr != nil {
				err = fmt.Errorf("server: journal append: %w", werr)
			} else {
				w.opsWritten += uint64(ops)
				if w.crashAfter > 0 && w.opsWritten >= uint64(w.crashAfter) && w.crashFn != nil {
					// Crash-test hook: die between the buffered write and
					// the fsync — bytes appended, nothing durable, no ack
					// sent. crashFn SIGKILLs the process and never returns.
					w.crashFn()
				}
				if testHookBeforeJournalSync != nil {
					err = testHookBeforeJournalSync()
				}
				if err == nil {
					if serr := w.f.Sync(); serr != nil {
						err = fmt.Errorf("server: journal sync: %w", serr)
					}
				}
			}
			if err == nil && w.ship != nil {
				// Semi-synchronous replication: the batch is on the local
				// disk; now put it on the follower's before anyone is told
				// it is durable. Runs under fmu so segments ship in append
				// order, which is what lets the follower's replica journal
				// stay a byte-exact prefix of this one.
				if serr := w.ship(w.wbuf); serr != nil {
					err = fmt.Errorf("server: journal ship: %w", serr)
				}
			}
			if err == nil && w.syncCost > 0 {
				// Modeled device: the flush takes at least syncCost; ops
				// keep queueing behind it, exactly as on a slow disk.
				if d := w.syncCost - time.Since(start); d > 0 {
					time.Sleep(d)
				}
			}
			if err == nil {
				w.fsize += int64(len(w.wbuf))
				if w.fsize >= w.segBytes && !last.seal {
					// The batch just flushed is durable and about to be
					// acked; seal the file behind it so the next batch
					// opens a fresh segment. A rotation failure poisons
					// the writer like an fsync failure: the journal's
					// on-disk shape is no longer known-good.
					err = w.rotateLocked(journalHeader)
				}
			}
			w.fmu.Unlock()
			if err == nil {
				w.ops.Add(uint64(ops))
				w.fsyncs.Add(1)
				w.bytesOut.Add(uint64(len(w.wbuf)))
				w.batchHist[histBucket(ops)].Add(1)
				// The flush duration covers write + fsync + any modeled
				// syncCost — what an ack actually waited on.
				d := time.Since(start)
				w.flushLat.ObserveDuration(d)
				w.flushBusy.Add(uint64(d))
			}
		}
		if err == nil && last.seal {
			err = w.sealActive(last)
		}
		if err != nil {
			w.qmu.Lock()
			if w.err == nil {
				w.err = err
			}
			w.qmu.Unlock()
		}
	}
	for _, r := range batch {
		if r.data != nil {
			w.ackBacklog.Add(-1)
		}
		r.done <- err
	}
}

// histBucket maps a batch size to its power-of-two histogram bucket:
// bucket b counts batches of (2^(b-1), 2^b] ops, bucket 0 is size 1.
func histBucket(n int) int {
	b := 0
	for n > 1 {
		n = (n + 1) / 2
		b++
	}
	if b >= batchHistBuckets {
		b = batchHistBuckets - 1
	}
	return b
}

// sealActive seals the active file, if it holds any bytes, into the
// next segment behind an empty active file, and reports in r the first
// segment number the seal did not cover.
func (w *journalWriter) sealActive(r *journalReq) error {
	w.fmu.Lock()
	defer w.fmu.Unlock()
	if w.fsize > 0 {
		if err := w.rotateLocked(nil); err != nil {
			return err
		}
	}
	r.seq = w.nextSeq
	return nil
}

// rotateLocked seals the active journal file into the next numbered
// segment and opens a fresh active file holding header: a jmeta frame
// after a size rotation, nothing after a seal. Called by the writer
// goroutine under fmu, between batches, so no op ever straddles a
// segment boundary. The header is written and synced, and the
// directory synced so the rename and the create are durable, before
// any op lands in the new file or compaction unlinks a segment.
func (w *journalWriter) rotateLocked(header []byte) error {
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("server: journal seal: %w", err)
	}
	active := journalPathIn(w.dir)
	segPath := segmentPathIn(w.dir, w.nextSeq)
	if err := os.Rename(active, segPath); err != nil {
		return fmt.Errorf("server: journal seal: %w", err)
	}
	w.segs = append(w.segs, segInfo{path: segPath, seq: w.nextSeq})
	w.nextSeq++
	nf, err := os.OpenFile(active, os.O_CREATE|os.O_EXCL|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("server: journal rotate: %w", err)
	}
	if len(header) > 0 {
		if _, err := nf.Write(header); err != nil {
			nf.Close()
			return fmt.Errorf("server: journal rotate: %w", err)
		}
		if err := nf.Sync(); err != nil {
			nf.Close()
			return fmt.Errorf("server: journal rotate: %w", err)
		}
	}
	if err := atomicfile.SyncDir(w.dir); err != nil {
		nf.Close()
		return fmt.Errorf("server: journal rotate: %w", err)
	}
	w.fsize = int64(len(header))
	w.f = nf
	w.sealed.Add(1)
	return nil
}

// deleteSealedBelow deletes the sealed segments numbered below seq,
// oldest first, so a crash part way leaves a suffix of the segments,
// never a gap. fmu is held only to read and update the segment list: a
// commit never waits on an unlink.
func (w *journalWriter) deleteSealedBelow(seq int) error {
	w.fmu.Lock()
	n := 0
	for n < len(w.segs) && w.segs[n].seq < seq {
		n++
	}
	drop := slices.Clone(w.segs[:n])
	w.fmu.Unlock()
	deleted := 0
	var err error
	for _, sg := range drop {
		if err = os.Remove(sg.path); err != nil {
			break
		}
		deleted++
	}
	w.fmu.Lock()
	w.segs = w.segs[deleted:]
	w.fmu.Unlock()
	return err
}

// errJournalCrashed is the sticky error an aborted writer reports to
// every queued and future append.
var errJournalCrashed = fmt.Errorf("server: journal abandoned by crash")

// abort is close's crash-shaped sibling: it poisons the writer so every
// queued op errors out instead of being flushed, stops the loop, and
// closes the file without a final sync. Bytes already written stay on
// disk (possibly a torn tail); bytes still queued vanish un-acked —
// the exact semantics of SIGKILL between enqueue and fsync.
func (w *journalWriter) abort() {
	w.qmu.Lock()
	if w.err == nil {
		w.err = errJournalCrashed
	}
	alreadyClosed := w.closed
	w.closed = true
	w.qmu.Unlock()
	select {
	case w.kick <- struct{}{}:
	default:
	}
	<-w.exited
	if alreadyClosed {
		return
	}
	w.fmu.Lock()
	defer w.fmu.Unlock()
	_ = w.f.Close()
}

// close flushes every queued op, stops the writer, and closes the file.
// Appends issued after close fail rather than vanish.
func (w *journalWriter) close() error {
	w.qmu.Lock()
	if w.closed {
		w.qmu.Unlock()
		<-w.exited
		return nil
	}
	w.closed = true
	w.qmu.Unlock()
	select {
	case w.kick <- struct{}{}:
	default:
	}
	<-w.exited
	w.fmu.Lock()
	defer w.fmu.Unlock()
	return w.f.Close()
}

// segCount returns how many sealed segments are on disk right now.
func (w *journalWriter) segCount() int {
	w.fmu.Lock()
	defer w.fmu.Unlock()
	return len(w.segs)
}

// journalPathIn returns dir's journal file path.
func journalPathIn(dir string) string {
	return filepath.Join(dir, journalFile)
}

// segmentPathIn returns the path of dir's sealed journal segment seq.
func segmentPathIn(dir string, seq int) string {
	return filepath.Join(dir, fmt.Sprintf("journal-%06d.seg", seq))
}

// segmentSeq reports the seal sequence number encoded in a sealed
// segment's base file name (journal-NNNNNN.seg), or ok == false if the
// name is not a segment.
func segmentSeq(base string) (seq int, ok bool) {
	const pre, suf = "journal-", ".seg"
	if len(base) <= len(pre)+len(suf) ||
		base[:len(pre)] != pre || base[len(base)-len(suf):] != suf {
		return 0, false
	}
	digits := base[len(pre) : len(base)-len(suf)]
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
		seq = seq*10 + int(c-'0')
	}
	return seq, true
}
