package server

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"uucs/internal/core"
	"uucs/internal/protocol"
	"uucs/internal/testcase"
)

// Parallel journal replay. The reference semantics are serial: decode
// each record and apply it in file order, paying the expensive part —
// frame CRC and field parse, run-payload decode — inline on one core.
// At a 64MB multi-segment journal that is the whole cost of a cold
// restart and of failover promotion, so this file splits replay into
// three phases that put the expensive part on every core while keeping
// the result provably bit-identical to the serial order:
//
//  1. Boundary scan (sequential, cheap): recordScanner splits each
//     state file into records without decoding anything —
//     protocol.FrameLen reads just the magic byte and length prefix of
//     a frame, a legacy JSON line ends at its newline. This phase fixes
//     the record order: the global record index is (file order, offset
//     order), exactly the serial order.
//  2. Decode (parallel): workers grab record indexes from an atomic
//     cursor and fully decode each record in isolation (decodeRec:
//     frame CRC + field parse, or a legacy line's JSON unmarshal, then
//     the run/testcase payload). No record's decode depends on any
//     other record, so this phase is embarrassingly parallel and holds
//     the dominant cost.
//  3. Apply (per-shard queues): the main goroutine dispatches records
//     in global order. Client and results ops go to one of 16 apply
//     queues keyed by shardFor(client id) — the same hash that shards
//     the live server — so all ops of one client apply in record
//     order, which is the only order the replay dedup logic (lastSeq
//     monotonicity, registration-before-upload) ever reads. Ops with
//     cross-shard effects (headers, testcases) apply inline on the
//     dispatch goroutine, still in record order. Accepted run batches
//     are not appended to the result store by the workers — they are
//     collected per record index and concatenated in record order
//     after the queues drain, so s.results is byte-for-byte the serial
//     order's.
//
// Why per-client order is sufficient: the replay decisions read only
// per-client state (shard.clients[id], shard.lastSeq[id]) and
// idempotent global maps (nonce → id, testcase id dedup). Two records
// touching different clients commute; two records touching the same
// client share a queue. Errors are collected with their record index
// and the minimum-index error is returned, which is exactly the first
// error a serial replay would have hit.
//
// Torn tails keep their serial semantics: only the final record of the
// active journal may be torn. A torn frame is dropped at the boundary
// scan; a torn legacy JSON line is decoded and applied, with any error
// silently dropping it — if it applies cleanly it is state.

// replayStats describes one LoadState replay.
type replayStats struct {
	lastNanos atomic.Int64  // wall time of the most recent replay
	records   atomic.Uint64 // records applied by the most recent replay
	files     atomic.Uint64 // state files scanned by the most recent replay
	bytes     atomic.Uint64 // bytes scanned by the most recent replay
}

// replayRec is one boundary-scanned record awaiting decode.
type replayRec struct {
	file  string // file base name, for error formatting
	rec   int    // 1-based record ordinal within its file
	pos   int    // byte offset of the record within its file
	data  []byte // raw bytes: a whole frame, or a JSON line without its newline
	frame bool   // binary frame vs JSON line
	torn  bool   // tolerated torn tail: errors drop the record instead of poisoning
	err   error  // boundary-scan error, reported when dispatch reaches it
}

// replayDec is a record's decoded form, produced by a phase-2 worker.
type replayDec struct {
	op   journalOp
	runs []*core.Run          // pre-decoded opResults payload
	tcs  []*testcase.Testcase // pre-decoded opTestcases payload
	err  error
}

// errAt formats a record-scoped error, the same for replay and
// ScanStateOps: binary records carry their byte offset (their CRC makes
// the position meaningful), JSON records do not.
func errAt(r *replayRec, err error) error {
	if r.frame {
		return fmt.Errorf("server: %s record %d (offset %d): %w", r.file, r.rec, r.pos, err)
	}
	return fmt.Errorf("server: %s record %d: %w", r.file, r.rec, err)
}

// journalFilesIn returns dir's journal files in replay order: sealed
// segments ascending by seal sequence, then the active journal (which
// may not exist yet). A gap in the sealed sequence is corruption — a
// missing middle segment would silently drop acked ops — and poisons
// the load. A missing prefix is legal: compaction deletes covered
// segments from the front.
func journalFilesIn(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return []string{journalPathIn(dir)}, nil
	}
	if err != nil {
		return nil, err
	}
	type seg struct {
		seq  int
		name string
	}
	var segs []seg
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if seq, ok := segmentSeq(e.Name()); ok {
			segs = append(segs, seg{seq, e.Name()})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	paths := make([]string, 0, len(segs)+1)
	for i, sg := range segs {
		if i > 0 && sg.seq != segs[i-1].seq+1 {
			return nil, fmt.Errorf("server: journal segment sequence gap: %s follows %s", sg.name, segs[i-1].name)
		}
		paths = append(paths, filepath.Join(dir, sg.name))
	}
	return append(paths, journalPathIn(dir)), nil
}

// StateFiles returns every state file of dir in replay order: the
// snapshot, sealed journal segments ascending, then the active
// journal. Any file may be absent (scan a missing file as empty). It
// fails on a sealed-segment sequence gap, which a reader must treat as
// corruption rather than skip.
func StateFiles(dir string) ([]string, error) {
	jf, err := journalFilesIn(dir)
	if err != nil {
		return nil, err
	}
	return append([]string{filepath.Join(dir, snapshotFile)}, jf...), nil
}

// IsStateFileName reports whether base names a server state file (the
// snapshot, the active journal, or a sealed segment).
func IsStateFileName(base string) bool {
	if base == snapshotFile || base == journalFile {
		return true
	}
	_, ok := segmentSeq(base)
	return ok
}

// tailState describes what OpenState must do to the active journal's
// physical tail before appending to it, so that a journal that lost
// its tail to a crash is never appended to mid-record (which would
// poison the *next* replay: a torn record is only tolerated at EOF).
type tailState struct {
	// size is the length of the active journal's valid prefix — every
	// byte of every record that replay kept.
	size int64
	// terminate is set when the final kept record is a JSON line whose
	// newline the crash ate: the line applied cleanly and is state, so
	// it must be sealed with a '\n' rather than truncated away.
	terminate bool
}

// recordScanner cuts one state file into records without decoding
// anything: a binary frame ends where protocol.FrameLen says, a JSON
// line at its newline. Replay and ScanStateOps both read through it.
// tolerateTail marks the file as the active journal: a torn final
// binary frame ends the scan (it is never decoded), and a torn final
// JSON line is returned flagged torn, so decode and apply errors drop
// it silently. A framing error tearing cannot explain comes back as a
// record carrying err, after which the scan ends — so a reader reports
// it at the exact record index a record-by-record decode would.
type recordScanner struct {
	data         []byte
	file         string
	tolerateTail bool
	pos          int
	rec          int
	// valid is the length of the prefix through the last whole record,
	// separators included.
	valid int
}

// next returns the next record, or ok == false once the file is done.
func (sc *recordScanner) next() (r replayRec, ok bool) {
	for sc.pos < len(sc.data) {
		switch sc.data[sc.pos] {
		case '\n', '\r', ' ', '\t':
			sc.pos++ // blank separators between JSON lines
			sc.valid = sc.pos
			continue
		}
		sc.rec++
		r = replayRec{file: sc.file, rec: sc.rec, pos: sc.pos}
		rest := sc.data[sc.pos:]
		if rest[0] == protocol.FrameMagic {
			r.frame = true
			n, err := protocol.FrameLen(rest)
			if err != nil {
				sc.pos = len(sc.data)
				if sc.tolerateTail && errors.Is(err, protocol.ErrShortFrame) {
					return r, false // torn tail: crash mid-append
				}
				r.err = err
				return r, true
			}
			r.data = rest[:n]
			sc.pos += n
			sc.valid = sc.pos
			return r, true
		}
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			r.data, r.torn = rest, sc.tolerateTail
			sc.pos = len(sc.data)
			return r, true
		}
		r.data = rest[:nl]
		sc.pos += nl + 1
		sc.valid = sc.pos
		return r, true
	}
	return r, false
}

// decodeRec fully decodes one record: its op (decodeOp), then the
// payload (runs or testcases). f is a per-worker scratch frame; the
// decoded op borrows views of the file buffer, not of f.
func decodeRec(r *replayRec, d *replayDec, f *protocol.Frame) {
	op, err := decodeOp(r, f)
	if err != nil {
		d.err = err
		return
	}
	d.op = op
	switch op.Op {
	case opResults:
		d.runs, d.err = core.ParseRuns(borrowBytes(op.Payload))
	case opTestcases:
		d.tcs, d.err = testcase.Parse(borrowBytes(op.Payload))
	}
}

// applyClientShard replays one opClient into the shard stores.
func (s *Server) applyClientShard(op *journalOp) error {
	if op.ID == "" {
		return fmt.Errorf("client op without id")
	}
	if op.Snapshot == nil {
		return fmt.Errorf("client op without snapshot")
	}
	s.regMu.Lock()
	sh := shardFor(s, op.ID)
	sh.lock()
	sh.clients[op.ID] = *op.Snapshot
	if op.LastSeq > sh.lastSeq[op.ID] {
		sh.lastSeq[op.ID] = op.LastSeq
	}
	sh.mu.Unlock()
	if op.Nonce != "" {
		s.nonces[op.Nonce] = op.ID
	}
	s.regMu.Unlock()
	return nil
}

// applyResultsShard replays the shard-local half of one opResults:
// registration check, (id, seq) dedup, lastSeq advance. It reports
// whether the batch's runs belong in the result store; the caller owns
// the append so record order is preserved no matter which goroutine
// runs the shard half.
func (s *Server) applyResultsShard(op *journalOp) (keep bool, err error) {
	sh := shardFor(s, op.ID)
	sh.lock()
	defer sh.mu.Unlock()
	if op.Seq > 0 {
		if _, ok := sh.clients[op.ID]; !ok {
			return false, fmt.Errorf("results op for unknown client %q", op.ID)
		}
		if op.Seq <= sh.lastSeq[op.ID] {
			return false, nil // already covered by the snapshot
		}
		sh.lastSeq[op.ID] = op.Seq
	}
	return true, nil
}

// replayError collects record-indexed errors from the dispatch
// goroutine and the shard workers, keeping the minimum-index one — the
// error a serial replay, which stops at the first failure, would have
// returned.
type replayError struct {
	mu  sync.Mutex
	idx int
	err error
}

func (re *replayError) record(idx int, err error) {
	re.mu.Lock()
	if re.err == nil || idx < re.idx {
		re.idx, re.err = idx, err
	}
	re.mu.Unlock()
}

func (re *replayError) first() error {
	re.mu.Lock()
	defer re.mu.Unlock()
	return re.err
}

// loadStateDir restores the server's stores from dir's state files and
// reports what OpenState must do to the active journal's physical tail.
// This is LoadState's engine; see the file comment for the phase
// structure and the bit-identity argument.
func (s *Server) loadStateDir(dir string) (tailState, error) {
	start := time.Now()
	files, err := StateFiles(dir)
	if err != nil {
		return tailState{}, err
	}

	// Phase 1: read + boundary-scan every file. Only the last file (the
	// active journal) may be torn.
	var (
		recs       []replayRec
		tail       tailState
		totalBytes int64
		nfiles     int
	)
	for i, path := range files {
		data, err := os.ReadFile(path)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return tailState{}, err
		}
		nfiles++
		totalBytes += int64(len(data))
		active := i == len(files)-1
		sc := recordScanner{data: data, file: filepath.Base(path), tolerateTail: active}
		for {
			r, ok := sc.next()
			if !ok {
				break
			}
			recs = append(recs, r)
		}
		if active {
			tail.size = int64(sc.valid)
			// A kept torn JSON line may extend the valid prefix to the
			// whole file — decided after apply, below.
		}
		if n := len(recs); n > 0 && recs[n-1].err != nil {
			// A scan error tearing cannot explain: stop at it, exactly
			// where a record-by-record decode would. Later files never
			// load.
			break
		}
	}

	// Phase 2: decode every record in parallel.
	workers := s.ReplayWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(recs) {
		workers = len(recs)
	}
	decs := make([]replayDec, len(recs))
	if workers > 1 {
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var f protocol.Frame
				for {
					i := int(cursor.Add(1)) - 1
					if i >= len(recs) {
						return
					}
					decodeRec(&recs[i], &decs[i], &f)
				}
			}()
		}
		wg.Wait()
	} else {
		var f protocol.Frame
		for i := range recs {
			decodeRec(&recs[i], &decs[i], &f)
		}
	}

	// Phase 3: dispatch in record order to per-shard apply queues.
	var (
		re      replayError
		runsOut = make([][]*core.Run, len(recs))
		applied = make([]bool, len(recs))
		chans   [numShards]chan int
		wg      sync.WaitGroup
	)
	for i := range chans {
		chans[i] = make(chan int, 128)
		wg.Add(1)
		go func(ch <-chan int) {
			defer wg.Done()
			for idx := range ch {
				r, d := &recs[idx], &decs[idx]
				switch d.op.Op {
				case opClient:
					if err := s.applyClientShard(&d.op); err != nil {
						if !r.torn {
							re.record(idx, errAt(r, err))
						}
						continue
					}
				case opResults:
					keep, err := s.applyResultsShard(&d.op)
					if err != nil {
						if !r.torn {
							re.record(idx, errAt(r, err))
						}
						continue
					}
					if keep {
						runsOut[idx] = d.runs
					}
				}
				applied[idx] = true
			}
		}(chans[i])
	}

dispatch:
	for idx := range recs {
		r, d := &recs[idx], &decs[idx]
		if d.err != nil {
			if r.torn {
				continue // torn tail that failed to decode: dropped
			}
			re.record(idx, errAt(r, d.err))
			break
		}
		switch d.op.Op {
		case opMeta, opJournalMeta:
			// File headers. A replica journal can carry several jmeta
			// frames (one per bootstrap segment shipped after a primary
			// restart); each just re-declares the format.
			if err := checkHeader(&d.op); err != nil {
				if r.torn {
					continue
				}
				re.record(idx, errAt(r, err))
				break dispatch
			}
			applied[idx] = true
		case opTestcases:
			// Inline, in record order: the testcase store is global and
			// its append order is part of the bit-identity contract.
			if err := s.addTestcases(d.tcs, false); err != nil {
				if r.torn {
					continue
				}
				re.record(idx, errAt(r, err))
				break dispatch
			}
			applied[idx] = true
		case opClient, opResults:
			chans[shardIndex(d.op.ID)] <- idx
		default:
			if r.torn {
				continue
			}
			re.record(idx, errAt(r, fmt.Errorf("unknown op %q", d.op.Op)))
			break dispatch
		}
	}
	for i := range chans {
		close(chans[i])
	}
	wg.Wait()
	if err := re.first(); err != nil {
		return tailState{}, err
	}

	// Accepted run batches land in the result store in record order —
	// the workers only decided, the dispatch order decides placement.
	var appliedRecs uint64
	s.resMu.Lock()
	for idx, runs := range runsOut {
		if runs != nil {
			s.results = append(s.results, runs...)
		}
		if applied[idx] {
			appliedRecs++
		}
	}
	s.resMu.Unlock()

	// A torn final JSON line that decoded and applied cleanly is state;
	// seal it with the newline the crash ate. Otherwise it was dropped
	// everywhere and its bytes must go too.
	if n := len(recs); n > 0 && recs[n-1].torn {
		last := &recs[n-1]
		if decs[n-1].err == nil && applied[n-1] {
			tail.size = int64(last.pos + len(last.data))
			tail.terminate = true
		} else {
			tail.size = int64(last.pos)
		}
	}

	s.replayStats.lastNanos.Store(time.Since(start).Nanoseconds())
	s.replayStats.records.Store(appliedRecs)
	s.replayStats.files.Store(uint64(nfiles))
	s.replayStats.bytes.Store(uint64(totalBytes))
	return tail, nil
}
