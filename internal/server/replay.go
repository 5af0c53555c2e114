package server

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
	"unsafe"

	"uucs/internal/core"
	"uucs/internal/pool"
	"uucs/internal/protocol"
	"uucs/internal/testcase"
)

// Journal replay. The reference semantics are serial: decode each
// record and apply it in file order. Decode — frame CRC and field
// parse, a check of each binary run payload that builds no run (the
// run store indexes it in the file's bytes; see runstore.go), a
// transcode of each text one (records older than journal format 5),
// the decode of each testcase batch (binary from format 6 on, text
// before) — is nearly the whole cost of a cold restart and of failover
// promotion, so replay runs as one bounded, ordered pipeline
// (pool.Ordered) that decodes on every core and applies strictly in
// record order:
//
//   - Cut, on the dispatcher goroutine: the state files are read one at
//     a time, and recordScanner cuts each into blocks of up to
//     replayBlockRecs records without decoding anything —
//     protocol.FrameLen reads just a frame's magic byte and length
//     prefix. A block never spans two files. A file that holds legacy
//     JSON lines is converted to frames where the scanner meets the
//     first one (legacy.go) — written back over the file when
//     OpenState replays, in memory for LoadState.
//   - Decode, on GOMAXPROCS goroutines: a worker decodes every
//     record of a block (decodeRec). A record's decoded form is a pure
//     function of its bytes, so blocks may decode in any order.
//   - Apply, on the dispatcher goroutine: blocks are applied in the
//     order they were cut, record by record, and each freed slot is
//     refilled with the next block.
//
// The bound: there are 2×GOMAXPROCS slots, so at most that many blocks
// are in flight. A file's bytes are held while the scanner cuts it and
// while a block cut from it is in flight; recycling a slot clears its
// records and decoded ops, so a file buffer becomes garbage once its
// last block is applied — unless the run store took it (replayFile).
// Beyond the restored stores, replay holds at most 2×GOMAXPROCS+1
// state files and as many blocks, however long the journal is.
//
// Why this is the serial order: the dispatcher cuts records in (file
// order, offset order) and applies them one at a time, on one
// goroutine, in that order. The workers only compute decoded forms. So
// every store mutation happens in the serial replay's order at any
// worker count, and the first record whose decode or apply fails is the
// one a serial replay stops at: replay stops there too and reports its
// file, record number and offset.
//
// Torn tails: only the active journal's final frame may be torn. The
// scanner drops it and stops where it starts, which is where OpenState
// truncates the file before appending.

// replayStats describes one LoadState replay. The dispatcher's three
// stages — scan (directory listing, file reads and record cutting),
// wait (for the next block's decode) and apply — partition the replay's
// wall time; decode is the workers' summed busy time.
type replayStats struct {
	lastNanos   atomic.Int64  // wall time of the most recent replay
	scanNanos   atomic.Int64  // dispatcher: listing, reading and cutting files
	waitNanos   atomic.Int64  // dispatcher: waiting for the next decoded block
	applyNanos  atomic.Int64  // dispatcher: applying decoded records
	decodeNanos atomic.Int64  // workers: total time spent decoding blocks
	records     atomic.Uint64 // records applied by the most recent replay
	files       atomic.Uint64 // state files scanned by the most recent replay
	bytes       atomic.Uint64 // bytes scanned by the most recent replay
	// peakPinned is the most state-file bytes the most recent replay
	// held at once: the file being cut plus those with blocks in flight.
	// It is not shown in Stats; tests read it to check the bound.
	peakPinned atomic.Int64
}

// replayRec is one boundary-scanned record awaiting decode.
type replayRec struct {
	file string // file base name, for error formatting
	rec  int    // 1-based record ordinal within its file
	pos  int    // byte offset of the record within its file
	data []byte // the whole frame
	err  error  // boundary-scan error, reported when apply reaches it
}

// replayDec is a record's decoded form, produced by a decode worker.
type replayDec struct {
	op StateOp
	// batch is an opResults payload as a checked binary batch of n runs:
	// a view of the record, or a text payload's transcoding.
	batch []byte
	n     int
	tcs   []*testcase.Testcase // pre-decoded opTestcases payload
	err   error
}

// errAt formats a record-scoped error, the same for replay,
// ScanStateOps and the legacy conversion.
func errAt(r *replayRec, err error) error {
	return fmt.Errorf("server: %s record %d (offset %d): %w", r.file, r.rec, r.pos, err)
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

// recordScanner cuts one state file into frames without decoding
// anything: a frame ends where protocol.FrameLen says. Replay and
// ScanStateOps both read through it. tolerateTail marks the file as the
// active journal: a torn final frame ends the scan (it is never
// decoded), and pos stays at its start — the file's valid prefix. A
// framing error tearing cannot explain comes back as a record carrying
// err, after which the scan ends — so a reader reports it at the exact
// record index a record-by-record decode would.
//
// At the first record that is not a frame, the scanner converts the
// rest of the file (convertLegacy) and scans on in the conversion,
// calling onConvert with it first when set; a conversion error comes
// back like a framing error, at the record that caused it.
type recordScanner struct {
	data         []byte
	file         string
	tolerateTail bool
	onConvert    func(conv []byte) error
	converted    bool
	pos          int
	rec          int
}

// next returns the next record, or ok == false once the file is done.
func (sc *recordScanner) next() (r replayRec, ok bool) {
	if sc.pos < len(sc.data) && sc.data[sc.pos] != protocol.FrameMagic && !sc.converted {
		sc.converted = true
		conv, bad, err := convertLegacy(sc.data, sc.pos, sc.rec, sc.file, sc.tolerateTail)
		if err == nil && sc.onConvert != nil {
			if err = sc.onConvert(conv); err != nil {
				bad = replayRec{file: sc.file, rec: sc.rec + 1, pos: sc.pos}
			}
		}
		if err != nil {
			sc.data = sc.data[:sc.pos] // the scan ends here
			bad.err = err
			return bad, true
		}
		sc.data = conv
	}
	if sc.pos == len(sc.data) {
		return r, false
	}
	sc.rec++
	r = replayRec{file: sc.file, rec: sc.rec, pos: sc.pos}
	n, err := protocol.FrameLen(sc.data[sc.pos:])
	if err != nil {
		sc.data = sc.data[:sc.pos] // the scan ends here
		if sc.tolerateTail && errors.Is(err, protocol.ErrShortFrame) {
			return r, false // torn tail: crash mid-append
		}
		r.err = err
		return r, true
	}
	r.data = sc.data[sc.pos : sc.pos+n]
	sc.pos += n
	return r, true
}

// decodeRec decodes one record: its op (decodeOp), then the payload. A
// binary run payload is checked and counted without building a run
// (core.CountRunsBinary), and the run store keeps its bytes; a text one
// (a legacy record) is transcoded to binary once, here. Testcases are
// decoded from binary, with no float parsing, or parsed from a legacy
// text record. f is a per-worker scratch frame; the decoded op borrows
// views of the file buffer, not of f.
func decodeRec(r *replayRec, d *replayDec, f *protocol.Frame) {
	if d.op, d.err = decodeOp(r, f); d.err != nil {
		return
	}
	switch d.op.Op {
	case opResults:
		if d.op.binary {
			d.batch = borrowBytes(d.op.Payload)
			d.n, d.err = core.CountRunsBinary(d.batch)
			return
		}
		d.batch, d.n, d.err = core.TranscodeRuns(nil, borrowBytes(d.op.Payload))
	case opTestcases:
		d.tcs, d.err = d.op.Testcases()
	}
}

// applyRec applies one decoded record, read from file, to the stores.
func (s *Server) applyRec(d *replayDec, file []byte) error {
	if d.err != nil {
		return d.err
	}
	switch d.op.Op {
	case opTestcases:
		s.storeTestcases(d.tcs, nil, nil)
		return nil
	case opClient:
		return s.applyClient(&d.op)
	case opResults:
		return s.applyResults(&d.op, d.batch, d.n, file)
	}
	// A jmeta header, whose version decodeOp checked. A replica journal
	// can carry several (one per bootstrap segment shipped after a
	// primary restart); each just re-declares the format.
	return nil
}

// applyClient replays one opClient into the shard stores.
func (s *Server) applyClient(op *StateOp) error {
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

// applyResults replays one opResults: registration check, (id, seq)
// dedup and lastSeq advance, then, unless the snapshot already covers
// the batch, the append of its n runs. A binary batch that lies in
// file, the bytes read from its state file, is indexed there (the run
// store takes file); any other, a transcoded text payload or one in a
// legacy file's conversion, is copied.
func (s *Server) applyResults(op *StateOp, batch []byte, n int, file []byte) error {
	sh := shardFor(s, op.ID)
	sh.lock()
	if op.Seq > 0 {
		if _, ok := sh.clients[op.ID]; !ok {
			sh.mu.Unlock()
			return fmt.Errorf("results op for unknown client %q", op.ID)
		}
		if op.Seq <= sh.lastSeq[op.ID] {
			sh.mu.Unlock()
			return nil // already covered by the snapshot
		}
		sh.lastSeq[op.ID] = op.Seq
	}
	sh.mu.Unlock()
	s.runs.mu.Lock()
	if off, ok := offsetIn(file, batch); ok {
		s.runs.addIn(file, off, len(batch), n)
	} else {
		s.runs.add(batch, n)
	}
	s.runs.mu.Unlock()
	return nil
}

// offsetIn reports where sub lies in buf, if it lies there.
func offsetIn(buf, sub []byte) (int, bool) {
	if len(sub) == 0 || len(sub) > len(buf) {
		return 0, false
	}
	b := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(sub)))
	if p < b || p-b > uintptr(len(buf)-len(sub)) {
		return 0, false
	}
	return int(p - b), true
}

// replayBlockRecs is how many consecutive records of one state file a
// replay block holds.
const replayBlockRecs = 256

// replayBlock is one pipeline slot: up to replayBlockRecs records cut
// from one state file, their decoded forms, and the decode scratch.
type replayBlock struct {
	file  *replayFile
	recs  []replayRec
	decs  []replayDec
	frame protocol.Frame
	// err is a file read error, reported once the block's records
	// (there are none) have applied — where a serial replay meets it.
	err error
}

// replayFile is one state file's bytes, data, as read, and their
// accounting: they are held while the scanner cuts the file or a block
// cut from it is in flight. refs counts those holds so the replayer
// can account pinned bytes (replayStats.peakPinned), which tests read
// to check the pipeline's memory bound; size is the file's length,
// plus its conversion's if it held legacy records. Who owns data: the
// replayer, until it applies a binary run batch that lies in it; the
// run store takes data then (runStore.addIn) and owns it from then on.
// Nothing writes data in either hand. Bytes the store did not take
// become garbage once every slot holding a block of the file is
// recycled.
type replayFile struct {
	data []byte
	size int64
	refs int
}

// replayer is the dispatcher's state: the files still to read, the one
// being cut, and the stage clocks and counters of one replay.
type replayer struct {
	s     *Server
	files []string
	next  int  // index in files of the next file to read
	stop  bool // a read or framing error ended the input
	cur   *replayFile
	sc    recordScanner
	// upgrade writes a legacy file's conversion back over it (OpenState).
	upgrade bool

	tail              int64     // the active journal's valid prefix
	segs              []segInfo // the sealed segments read
	nfiles            int
	bytes             int64
	records           uint64
	pinned, peak      int64
	mark              time.Time // end of the dispatcher's last stage
	scan, wait, apply time.Duration
	decode            atomic.Int64
}

// fill cuts the next block into b, recycling what b held; it reports
// false once every file is cut.
func (rp *replayer) fill(b *replayBlock) bool {
	defer rp.clock(&rp.scan)
	if b.file != nil {
		rp.release(b.file)
	}
	clear(b.recs)
	clear(b.decs)
	*b = replayBlock{recs: b.recs[:0], decs: b.decs[:0]}
	for len(b.recs) == 0 {
		if rp.cur == nil {
			if rp.stop || rp.next == len(rp.files) {
				return false
			}
			if b.err = rp.open(); b.err != nil {
				rp.stop = true
				return true
			}
			continue
		}
		if b.recs == nil {
			b.recs = make([]replayRec, 0, replayBlockRecs)
			b.decs = make([]replayDec, 0, replayBlockRecs)
		}
		f, done := rp.cur, false
		for len(b.recs) < replayBlockRecs {
			r, ok := rp.sc.next()
			if !ok {
				done = true
				break
			}
			// A framing error tearing cannot explain ends the input,
			// exactly where a record-by-record decode stops: the scanner
			// has ended its file, and no file after it is read.
			rp.stop = rp.stop || r.err != nil
			b.recs = append(b.recs, r)
		}
		if len(b.recs) > 0 {
			b.file = f
			f.refs++
		}
		if done {
			if rp.sc.tolerateTail { // the active journal
				rp.tail = int64(rp.sc.pos)
			}
			rp.release(f)
			rp.cur, rp.sc = nil, recordScanner{}
		}
	}
	return true
}

// open reads the next state file and starts cutting it. A missing
// file is an empty one.
func (rp *replayer) open() error {
	path := rp.files[rp.next]
	rp.next++
	// Only the last file, the active journal, may be torn.
	active := rp.next == len(rp.files)
	data, err := readState(path)
	if err != nil || data == nil {
		return err
	}
	if seq, ok := segmentSeq(filepath.Base(path)); ok {
		rp.segs = append(rp.segs, segInfo{path: path, seq: seq})
	}
	rp.nfiles++
	rp.bytes += int64(len(data))
	f := &replayFile{data: data, refs: 1}
	rp.pin(f, len(data))
	rp.cur = f
	rp.sc = recordScanner{data: data, file: filepath.Base(path), tolerateTail: active,
		onConvert: func(conv []byte) error { return rp.converted(path, f, conv) }}
	return nil
}

// converted takes over a legacy file's conversion: it writes it over
// the file when upgrading and pins it next to the file's bytes.
func (rp *replayer) converted(path string, f *replayFile, conv []byte) error {
	if rp.upgrade {
		if err := writeConverted(path, conv); err != nil {
			return err
		}
	}
	rp.pin(f, len(conv))
	return nil
}

// pin accounts n more bytes held for f.
func (rp *replayer) pin(f *replayFile, n int) {
	f.size += int64(n)
	rp.pinned += int64(n)
	rp.peak = max(rp.peak, rp.pinned)
}

// release drops one hold on f, unpinning its bytes with the last.
func (rp *replayer) release(f *replayFile) {
	if f.refs--; f.refs == 0 {
		rp.pinned -= f.size
	}
}

// decodeBlock is the workers' stage: decode every record of b.
func (rp *replayer) decodeBlock(b *replayBlock) {
	start := time.Now()
	b.decs = b.decs[:len(b.recs)]
	for i := range b.recs {
		decodeRec(&b.recs[i], &b.decs[i], &b.frame)
	}
	rp.decode.Add(int64(time.Since(start)))
}

// applyBlock applies b's records in order and stops at the first one
// that fails.
func (rp *replayer) applyBlock(b *replayBlock) error {
	rp.clock(&rp.wait)
	defer rp.clock(&rp.apply)
	for i := range b.recs {
		if err := rp.s.applyRec(&b.decs[i], b.file.data); err != nil {
			return errAt(&b.recs[i], err)
		}
		rp.records++
	}
	return b.err
}

// clock charges the time since the dispatcher's last stage ended to
// stage.
func (rp *replayer) clock(stage *time.Duration) {
	now := time.Now()
	*stage += now.Sub(rp.mark)
	rp.mark = now
}

// loadStateDir restores the server's stores from dir's state files and
// returns the length of the active journal's valid prefix, where
// OpenState must truncate a torn tail before appending, and the sealed
// segments it read, for OpenState to register. upgrade writes
// the conversion of each legacy file back over it. This is LoadState's
// and OpenState's engine; see the file comment for the pipeline and
// why it restores exactly what a serial replay does.
func (s *Server) loadStateDir(dir string, upgrade bool) (int64, []segInfo, error) {
	rp := replayer{s: s, upgrade: upgrade, mark: time.Now()}
	start := rp.mark
	var err error
	if rp.files, err = StateFiles(dir); err != nil {
		return 0, nil, err
	}
	slots := make([]replayBlock, 2*runtime.GOMAXPROCS(0))
	if err := pool.Ordered(0, slots, rp.fill, rp.decodeBlock, rp.applyBlock); err != nil {
		return 0, nil, err
	}
	rp.clock(&rp.wait) // the workers' shutdown

	st := &s.replayStats
	st.lastNanos.Store(time.Since(start).Nanoseconds())
	st.scanNanos.Store(int64(rp.scan))
	st.waitNanos.Store(int64(rp.wait))
	st.applyNanos.Store(int64(rp.apply))
	st.decodeNanos.Store(rp.decode.Load())
	st.records.Store(rp.records)
	st.files.Store(uint64(rp.nfiles))
	st.bytes.Store(uint64(rp.bytes))
	st.peakPinned.Store(rp.peak)
	return rp.tail, rp.segs, nil
}
