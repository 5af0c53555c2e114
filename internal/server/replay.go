package server

import (
	"bytes"
	"encoding/json"
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

// Parallel journal replay. The serial loader (scanOpsFile + applyOp)
// walks one file record by record, paying the expensive part — JSON
// unmarshal, run-payload decode, frame CRC — inline on one core. At a
// 64MB multi-segment journal that is the whole cost of a cold restart
// and of failover promotion, so this file splits replay into three
// phases that put the expensive part on every core while keeping the
// result provably bit-identical to the serial loader:
//
//  1. Boundary scan (sequential, cheap): each state file is split into
//     records without decoding anything — protocol.FrameLen reads just
//     the magic byte and length prefix of a binary frame, JSON lines
//     end at their newline. This phase fixes the record order: the
//     global record index is (file order, offset order), exactly the
//     order the serial loader applies.
//  2. Decode (parallel): workers grab record indexes from an atomic
//     cursor and fully decode each record in isolation — frame CRC +
//     field parse, JSON unmarshal, run/testcase payload decode. No
//     record's decode depends on any other record, so this phase is
//     embarrassingly parallel and holds the dominant cost.
//  3. Apply (per-shard queues): the main goroutine dispatches records
//     in global order. Client and results ops go to one of 16 apply
//     queues keyed by shardFor(client id) — the same hash that shards
//     the live server — so all ops of one client apply in record
//     order, which is the only order applyOp's dedup logic (lastSeq
//     monotonicity, registration-before-upload) ever reads. Ops with
//     cross-shard effects (meta, jmeta, testcases) apply inline on the
//     dispatch goroutine, still in record order. Accepted run batches
//     are not appended to the result store by the workers — they are
//     collected per record index and concatenated in record order
//     after the queues drain, so s.results is byte-for-byte the serial
//     loader's.
//
// Why per-client order is sufficient: applyOp's replay decisions read
// only per-client state (shard.clients[id], shard.lastSeq[id]) and
// idempotent global maps (nonce → id, testcase id dedup). Two records
// touching different clients commute; two records touching the same
// client share a queue. Errors are collected with their record index
// and the minimum-index error is returned, which is exactly the first
// error the serial loader would have hit.
//
// Torn tails keep their serial semantics: only the final record of the
// active journal may be torn. A torn binary frame is dropped at the
// boundary scan; a torn JSON line is decoded and applied, with any
// error silently dropping it — if it applies cleanly it is state,
// matching the serial loader bit for bit.

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

// errAt formats a record-scoped error exactly as the serial scanner
// does: binary records carry their byte offset (their CRC makes the
// position meaningful), JSON records do not.
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

// splitRecords boundary-scans one state file into records, appending to
// recs. It returns the extended slice and the file's valid prefix
// length (bytes through the last whole record, separators included).
// tolerateTail marks the file as the active journal: a torn final
// binary frame is dropped here (the serial scanner never decodes it),
// and a torn final JSON line is kept but flagged so decode/apply
// errors drop it silently. A scan error that tearing cannot explain is
// attached to a sentinel record so dispatch reports it at the exact
// record index the serial scanner would have.
func splitRecords(recs []replayRec, data []byte, base string, tolerateTail bool) ([]replayRec, int64) {
	rec := 0
	pos := 0
	valid := 0
	for pos < len(data) {
		switch data[pos] {
		case '\n', '\r', ' ', '\t':
			pos++ // blank separators between JSON lines
			valid = pos
			continue
		}
		rec++
		if data[pos] == protocol.FrameMagic {
			n, err := protocol.FrameLen(data[pos:])
			if err != nil {
				if tolerateTail && errors.Is(err, protocol.ErrShortFrame) {
					return recs, int64(valid) // torn tail: crash mid-append
				}
				r := replayRec{file: base, rec: rec, pos: pos, frame: true}
				r.err = err
				return append(recs, r), int64(valid)
			}
			recs = append(recs, replayRec{file: base, rec: rec, pos: pos, data: data[pos : pos+n], frame: true})
			pos += n
			valid = pos
			continue
		}
		nl := bytes.IndexByte(data[pos:], '\n')
		if nl < 0 {
			recs = append(recs, replayRec{file: base, rec: rec, pos: pos, data: data[pos:], torn: tolerateTail})
			return recs, int64(valid)
		}
		recs = append(recs, replayRec{file: base, rec: rec, pos: pos, data: data[pos : pos+nl]})
		pos += nl + 1
		valid = pos
	}
	return recs, int64(valid)
}

// decodeRec fully decodes one record: frame CRC + fields or JSON
// unmarshal, then the payload (runs or testcases). f is a per-worker
// scratch frame; the decoded op borrows views of the file buffer, not
// of f.
func decodeRec(r *replayRec, d *replayDec, f *protocol.Frame) {
	if r.err != nil {
		d.err = r.err
		return
	}
	if r.frame {
		if _, err := protocol.DecodeFrame(r.data, f); err != nil {
			d.err = err
			return
		}
		op, err := frameOp(f)
		if err != nil {
			d.err = err
			return
		}
		d.op = op
	} else if err := json.Unmarshal(r.data, &d.op); err != nil {
		d.err = err
		return
	}
	switch d.op.Op {
	case opResults:
		runs, err := core.ParseRuns(borrowBytes(d.op.Payload))
		if err != nil {
			d.err = err
			return
		}
		d.runs = runs
	case opTestcases:
		tcs, err := testcase.Parse(borrowBytes(d.op.Payload))
		if err != nil {
			d.err = err
			return
		}
		d.tcs = tcs
	}
}

// applyClientShard replays one opClient into the shard stores —
// applyOp's client case, shared verbatim with the parallel path.
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
// error the serial loader, which stops at the first failure, would
// have returned.
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
		before := len(recs)
		var valid int64
		recs, valid = splitRecords(recs, data, filepath.Base(path), active)
		if active {
			tail.size = valid
			// A kept torn JSON line may extend the valid prefix to the
			// whole file — decided after apply, below.
		}
		if len(recs) > before && recs[len(recs)-1].err != nil {
			// A scan error tearing cannot explain: stop at it, exactly
			// where the serial scanner would. Later files never load.
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
		case opMeta:
			if d.op.Ver != stateVersion {
				if r.torn {
					continue
				}
				re.record(idx, errAt(r, fmt.Errorf("unsupported state version %d", d.op.Ver)))
				break dispatch
			}
			applied[idx] = true
		case opJournalMeta:
			if d.op.Ver != journalFormatVersion {
				if r.torn {
					continue
				}
				re.record(idx, errAt(r, fmt.Errorf("unsupported journal format version %d", d.op.Ver)))
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
