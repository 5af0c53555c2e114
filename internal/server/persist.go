package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"unsafe"

	"uucs/internal/atomicfile"
	"uucs/internal/core"
	"uucs/internal/protocol"
	"uucs/internal/testcase"
)

// Server-side permanent storage. This file round-trips the server's
// full state through a directory so restarts lose nothing. The paper's
// server keeps text files; here the exchange formats stay text (sync
// replies and uploads on the wire, the export, the cluster merge's
// output) while the state files hold framed records, run batches in
// core's binary run format and testcases in testcase's, so a restart
// never lexes or float-parses a run or a testcase.
//
// The layout is crash-safe: a compacted snapshot file written
// atomically (temp file + rename) plus an append-only journal of sealed
// segments and one active file. Every registration and accepted result
// batch is appended to the journal and synced to stable storage — by
// the group-commit writer in journal.go, one fsync per batch of
// concurrent ops — before it is acknowledged to the client. SaveState
// compacts: while holding every state lock it copies the state and
// enqueues a seal (each op is enqueued before it becomes visible under
// those locks, so the copy covers exactly the ops queued before the
// seal), writes a fresh snapshot, waits for the seal to close the
// active file behind those ops, and deletes the sealed segments below
// it, oldest first. Ops journaled while the snapshot was being written
// sit in files past the seal and are never touched. A crash before the
// deletes leaves the new snapshot with old segments under it; replay
// dedups registrations by nonce, sequenced result batches by per-client
// sequence number and testcases by ID, so that restores the same state
// — except an unsequenced (Seq 0) upload, which it applies twice. A
// partial final journal record (crash mid-append) is detected and
// dropped.
//
// Record formats: every record this build writes — to the journal and
// to the snapshot alike — is a v3 wire frame (protocol.FrameMagic, a
// length prefix, tagged fields, a CRC32 trailer):
//
//	jmeta       file header; Ver = journalFormatVersion
//	registered  a registration: ClientID, Nonce, Snapshot, and Seq =
//	            the client's LastSeq floor (snapshot records only)
//	jtestcases  a testcase batch, journaled by AddTestcases or written
//	            from the store by SaveState: the testcases in binary
//	            form (testcase.AppendBinary), back to back, as Payload
//	jruns       an accepted upload: ClientID, Seq, and its runs
//	            transcoded from the uploaded text to binary form
//	            (core.TranscodeRuns), as Payload
//	results     with no ClientID and Seq 0, one chunk of a snapshot's
//	            run aggregate: Ver = binaryRunsFormat (the payload is
//	            binary runs), the whole aggregate's content hash (Nonce,
//	            8 bytes) and the chunk's index (Count)
//
// A frame holds at most protocol.MaxMessageBytes, so testcase batches
// and aggregates are cut at testcase and run ends into consecutive
// frames (recordChunkBytes); replay applies the pieces in order, which
// is the state the whole would give. Every record carries its own CRC, and
// replay re-validates it with the wire decoder.
//
// These are the only records replay, ScanStateOps and the cluster merge
// decode. Older builds wrote other forms — JSON op lines, text uploads,
// text aggregate chunks, text testcase batches, older headers — and
// legacy.go alone reads them: OpenState rewrites each state file that
// holds one, once, as this build writes the same ops, before replaying
// it, while LoadState and ScanStateOps convert in memory and write
// nothing.
// Each header version makes the builds before it refuse a directory
// this one wrote instead of misreading it.
//
// Torn tails: a record is torn if the file ends before the frame's
// declared length (ErrShortFrame). A complete record that fails its CRC
// — e.g. a corrupted header mid-file — is never treated as tearing: it
// poisons the load, because a CRC-valid prefix cannot be reconstructed
// from a corrupt length field without risking silently mis-parsing
// everything after it.

// State file names.
const (
	snapshotFile = "snapshot.txt"
	journalFile  = "journal.txt"
)

// Journal op kinds.
const (
	opTestcases   = "tc"
	opClient      = "client"
	opResults     = "results"
	opJournalMeta = "jmeta"
)

// journalFormatVersion is the jmeta version this build writes: format
// 6, whose run and testcase payloads are binary. An aggregate chunk
// carries Ver binaryRunsFormat, which says its payload is binary.
// Older versions are read by their conversion (legacy.go).
const (
	binaryRunsFormat     = 5
	journalFormatVersion = 6
)

// newestJournalFormat is the newest jmeta version this build reads. It
// is a variable only so tests can stand in for an older build.
var newestJournalFormat = journalFormatVersion

// journalHeader is the jmeta frame that opens every journal file and
// snapshot this build writes. Shared and never mutated.
var journalHeader, _ = protocol.AppendFrame(nil, protocol.Message{Type: protocol.TypeJournalMeta, Ver: journalFormatVersion})

// recordChunkBytes bounds the payload of one testcase or aggregate
// frame, leaving headroom under protocol.MaxMessageBytes for the other
// fields. A variable so tests can force the split on small inputs.
var recordChunkBytes = protocol.MaxMessageBytes - 1<<10

// testHookAfterSnapshot, when non-nil, runs between SaveState's
// snapshot write and its segment deletes — the window in which a live
// server keeps accepting (journaling and acking) ops that the
// snapshot's state copy predates. Tests use it to pin that race open.
var testHookAfterSnapshot func(*Server)

// OpenState attaches the server to a state directory: it restores any
// existing snapshot + journal, first rewriting each file that holds
// records an older build wrote as this build writes them (once;
// legacy.go), then starts the
// group-commit journal writer so every subsequent registration and
// accepted result batch is durable before it is acknowledged. Call
// SaveState periodically to compact. JournalBatch must be set before
// OpenState.
func (s *Server) OpenState(dir string) error {
	if dir == "" {
		return fmt.Errorf("server: empty state directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	size, segs, err := s.loadStateDir(dir, true)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, journalFile), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	// Crash repair: replay dropped any torn final frame, but appending
	// after it would bury it mid-file, where the next replay must treat
	// it as corruption. Cut the file back to the frames replay kept.
	if err := f.Truncate(size); err != nil {
		f.Close()
		return err
	}
	if size == 0 {
		// Fresh journal: write the self-identifying format header. It
		// goes straight to the file, outside the journal writer, so it
		// is neither counted as an op (crash-after hooks and op counts
		// see only real mutations) nor acked to anyone.
		if _, err := f.Write(journalHeader); err != nil {
			f.Close()
			return err
		}
		size = int64(len(journalHeader))
	}
	// Register the sealed segments replay read so compaction can delete
	// them once a snapshot covers them.
	jw := newJournalWriter(f, s.JournalBatch)
	jw.dir = dir
	jw.segBytes = s.JournalSegmentBytes
	if jw.segBytes <= 0 {
		jw.segBytes = defaultJournalSegmentBytes
	}
	jw.segs = segs
	if n := len(segs); n > 0 {
		jw.nextSeq = segs[n-1].seq + 1
	}
	jw.fsize = size
	jw.syncCost = s.JournalSyncCost
	jw.ship = s.JournalShip
	if s.CrashAfterJournalOps > 0 {
		jw.crashAfter = s.CrashAfterJournalOps
		jw.crashFn = func() { crashNow(dir, jw.opsWritten) }
	}
	go jw.run()
	s.stateMu.Lock()
	old := s.jw
	s.jw = jw
	s.stateDir = dir
	s.stateMu.Unlock()
	if old != nil {
		return old.close()
	}
	return nil
}

// stateCopy is the coordinated cut SaveState works from.
type stateCopy struct {
	tcs        []*tcSlot
	held       int // the copy's runs: the first held of the run store
	clients    []clientEntry
	journaling bool
	jw         *journalWriter
	// seal, when compacting (journaling into the snapshot's own
	// directory), is the seal enqueued with the copy: the segments below
	// it hold only ops the copy covers.
	seal *journalReq
}

type clientEntry struct {
	id    string
	nonce string
	snap  protocol.Snapshot
	seq   uint64
}

// copyState takes every state lock in hierarchy order (regMu, tcMu,
// shards, runs.mu) and copies the stores — the run store as its run
// count: the log only grows, so its first held runs are the copy's, to
// be read once the locks are released. Because every mutation enqueues
// its journal op before becoming visible under these locks, the copy
// covers every journal op queued before the seal enqueued here, and
// none after it — the invariant that makes compaction lossless on a
// live server.
func (s *Server) copyState(dir string) stateCopy {
	jw := s.journal()
	s.stateMu.Lock()
	stateDir := s.stateDir
	s.stateMu.Unlock()

	s.regMu.Lock()
	s.tcMu.RLock()
	for i := range s.shards {
		s.shards[i].lock()
	}
	s.runs.mu.Lock()

	c := stateCopy{jw: jw, journaling: jw != nil}
	c.tcs = slices.Clone(s.testcases)
	c.held = s.runs.held
	nonceByID := make(map[string]string, len(s.nonces))
	for nonce, id := range s.nonces {
		nonceByID[id] = nonce
	}
	for i := range s.shards {
		sh := &s.shards[i]
		for id, snap := range sh.clients {
			c.clients = append(c.clients, clientEntry{id: id, nonce: nonceByID[id], snap: snap, seq: sh.lastSeq[id]})
		}
	}
	if jw != nil && stateDir == dir {
		c.seal = jw.seal()
	}

	s.runs.mu.Unlock()
	for i := numShards - 1; i >= 0; i-- {
		s.shards[i].mu.Unlock()
	}
	s.tcMu.RUnlock()
	s.regMu.Unlock()
	sort.Slice(c.clients, func(i, j int) bool { return c.clients[i].id < c.clients[j].id })
	return c
}

// SaveState writes a compacted snapshot of the server's stores to dir
// (creating it if needed) and compacts the journal by deleting the
// sealed segments the snapshot covers. It is safe to call on a live
// server: registrations and result batches keep flowing while the
// snapshot is written, and any op journaled in that window — already
// acked to its client — lands in a file past the seal, which compaction
// never touches, so the journal-before-ack guarantee holds across
// compaction.
func (s *Server) SaveState(dir string) error {
	if dir == "" {
		return fmt.Errorf("server: empty state directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	c := s.copyState(dir)

	err := atomicfile.Write(filepath.Join(dir, snapshotFile), func(f *os.File) error {
		w := bufio.NewWriter(f)
		w.Write(journalHeader)
		// The testcases are encoded from the store's own testcases; no
		// slot's text is rendered.
		tcs := make([]*testcase.Testcase, len(c.tcs))
		for i, sl := range c.tcs {
			tcs[i] = sl.tc
		}
		rec, err := appendTestcaseBatch(nil, tcs)
		if err != nil {
			return err
		}
		for _, cl := range c.clients {
			if rec, err = appendClientRecord(rec, cl.id, cl.nonce, &cl.snap, cl.seq); err != nil {
				return err
			}
		}
		w.Write(rec)
		if c.held > 0 {
			if err := s.writeAggregate(w, c.held); err != nil {
				return err
			}
		}
		return w.Flush()
	})
	if err != nil {
		return err
	}
	if testHookAfterSnapshot != nil {
		testHookAfterSnapshot(s)
	}

	if c.seal != nil {
		// The snapshot covers every segment below the seal; the files
		// past it hold the ops acked while it was being written.
		if err := <-c.seal.done; err != nil {
			return err
		}
		return c.jw.deleteSealedBelow(c.seal.seq)
	}
	// Not journaling into dir (detached server, or a snapshot exported
	// to a foreign directory): leave any live journal alone, but empty
	// dir's own journal file — and delete any stale sealed segments —
	// so old journal bytes are not replayed on top of the fresh
	// snapshot.
	if jpaths, err := journalFilesIn(dir); err == nil {
		for _, p := range jpaths[:len(jpaths)-1] {
			if err := os.Remove(p); err != nil {
				return err
			}
		}
	}
	if c.journaling || fileExists(journalPathIn(dir)) {
		return os.WriteFile(journalPathIn(dir), nil, 0o644)
	}
	return nil
}

// LoadState restores a server's stores from dir: the snapshot first,
// then the journal — sealed segments in seal order, then the active
// file — replayed on top. Records decode on GOMAXPROCS goroutines and
// apply in record order through a bounded pipeline (replay.go); the
// restored stores are bit-identical to a serial replay at any
// GOMAXPROCS.
// Missing files are treated as empty stores, so a fresh directory
// loads cleanly. Legacy state is converted in memory (legacy.go);
// nothing is written. A truncated final record in the active journal —
// the signature of a crash mid-append — is dropped; corruption anywhere
// else (including a torn tail inside a sealed segment, or a gap in the
// segment sequence) is an error.
func (s *Server) LoadState(dir string) error {
	if dir == "" {
		return fmt.Errorf("server: empty state directory")
	}
	_, _, err := s.loadStateDir(dir, false)
	return err
}

// decodeOp decodes one record, in the form this build writes (the
// record scanner converts every other, legacy.go), into its op: the
// frame through the wire decoder (CRC check included), then its fields.
// Payloads borrow the record's bytes without copying; ids, nonces and
// snapshots, which the stores keep, are copied so they do not pin the
// file buffer. f is scratch. A run payload is not decoded here; see
// Runs. A jmeta header of a format this build does not read is an
// error.
func decodeOp(r *replayRec, f *protocol.Frame) (StateOp, error) {
	if r.err != nil {
		return StateOp{}, r.err
	}
	if _, err := protocol.DecodeFrame(r.data, f); err != nil {
		return StateOp{}, err
	}
	switch f.Type {
	case protocol.TypeJournalMeta:
		return StateOp{Op: opJournalMeta}, checkFormat(f.Ver)
	case protocol.TypeRegistered:
		snap, err := f.DecodeSnapshot()
		if err != nil {
			return StateOp{}, err
		}
		return StateOp{Op: opClient, ID: string(f.ClientID), Nonce: string(f.Nonce), Snapshot: snap, LastSeq: f.Seq}, nil
	case protocol.TypeJournalTestcases:
		return StateOp{Op: opTestcases, Payload: borrowString(f.Payload)}, nil
	case protocol.TypeJournalRuns:
		return StateOp{Op: opResults, ID: string(f.ClientID), Seq: f.Seq, Payload: borrowString(f.Payload)}, nil
	case protocol.TypeResults:
		// A snapshot aggregate chunk: a results record with a client id
		// or without Ver is converted before it gets here.
		if len(f.Nonce) != 8 {
			return StateOp{}, fmt.Errorf("aggregate hash of %d bytes", len(f.Nonce))
		}
		return StateOp{Op: opResults, Seq: f.Seq, Payload: borrowString(f.Payload), aggHash: borrowString(f.Nonce), part: f.Count}, nil
	default:
		return StateOp{}, fmt.Errorf("unexpected %q frame in journal", f.Type)
	}
}

// appendClientRecord appends a registration record: a TypeRegistered
// frame with the client's id, nonce and machine snapshot, and its
// LastSeq floor as Seq (non-zero only in a snapshot).
func appendClientRecord(dst []byte, id, nonce string, snap *protocol.Snapshot, lastSeq uint64) ([]byte, error) {
	return protocol.AppendFrame(dst, protocol.Message{
		Type: protocol.TypeRegistered, ClientID: id, Nonce: nonce, Snapshot: snap, Seq: lastSeq,
	})
}

// appendTestcaseBatch appends tcs as jtestcases records: their binary
// encodings back to back, cut at testcase ends. It fails, appending
// nothing, on a testcase that is invalid or that the text format cannot
// state (testcase.AppendBinary), which a replay could not serve back as
// the same text.
func appendTestcaseBatch(dst []byte, tcs []*testcase.Testcase) ([]byte, error) {
	var payload []byte
	ends := make([]int, len(tcs))
	for i, tc := range tcs {
		var err error
		if payload, err = testcase.AppendBinary(payload, tc); err != nil {
			return dst, err
		}
		ends[i] = len(payload)
	}
	return appendChunked(dst, payload, ends, func(_ int, chunk string) protocol.Message {
		return protocol.Message{Type: protocol.TypeJournalTestcases, Payload: chunk}
	})
}

// aggregate builds a snapshot's run aggregate from runs handed to add
// in order: TypeResults frames with no client id and Seq 0, each
// holding a binary batch of at most recordChunkBytes. Every chunk
// carries the whole aggregate's content hash and its own index, so the
// cluster merge deduplicates the aggregate as one unit, and the cut
// depends on the runs alone. The hash is aggregateHash of the empty id and the runs'
// canonical text, the payload every earlier format stored, so a text
// aggregate and a binary one of the same runs deduplicate in the
// merge; the text streams through the hasher and is never held whole.
type aggregate struct {
	hash    hash.Hash64
	chunker *core.BinaryRunChunker
	chunks  []byte // the binary batches, back to back
	ends    []int  // each batch's end in chunks
}

func newAggregate() *aggregate {
	a := &aggregate{hash: fnv.New64a()}
	a.hash.Write([]byte{0})
	a.chunker = core.NewBinaryRunChunker(recordChunkBytes, func(chunk []byte) error {
		a.chunks = append(a.chunks, chunk...)
		a.ends = append(a.ends, len(a.chunks))
		return nil
	})
	return a
}

// add appends runs, whose canonical text (core.AppendRuns with load) is
// text.
func (a *aggregate) add(runs []*core.Run, text []byte) error {
	a.hash.Write(text)
	return a.chunker.Add(runs)
}

// writeTo writes the aggregate's frames to w.
func (a *aggregate) writeTo(w io.Writer) error {
	if err := a.chunker.Close(); err != nil {
		return err
	}
	var sum [8]byte
	binary.LittleEndian.PutUint64(sum[:], a.hash.Sum64())
	var rec []byte
	start := 0
	for part, end := range a.ends {
		var err error
		rec, err = protocol.AppendFrame(rec[:0], protocol.Message{
			Type: protocol.TypeResults, Ver: binaryRunsFormat, Nonce: string(sum[:]), Count: part, Payload: borrowString(a.chunks[start:end]),
		})
		if err != nil {
			return err
		}
		if _, err := w.Write(rec); err != nil {
			return err
		}
		start = end
	}
	return nil
}

// writeAggregate writes the aggregate of the run store's first n runs
// to w. It reads the store through scan, so runs still held as binary
// batches are decoded a block at a time, their text encoded on the
// decoding goroutines, and none is kept: a snapshot leaves the store in
// the form it found it.
func (s *Server) writeAggregate(w io.Writer, n int) error {
	a := newAggregate()
	err := s.runs.scan(n,
		func(p *runPiece) { p.buf = core.AppendRuns(p.buf[:0], p.runs, true) },
		func(p *runPiece) error { return a.add(p.runs, p.buf) })
	if err != nil {
		return err
	}
	return a.writeTo(w)
}

// uploadRecord returns the journal record of an accepted upload f whose
// runs batch holds in binary form (core.TranscodeRuns): a jruns frame
// with the client id, the batch seq and the batch as payload, built in
// one allocation of its size. dispatch refuses a batch larger than
// recordChunkBytes, so the record fits a frame.
func uploadRecord(f *protocol.Frame, batch []byte) ([]byte, error) {
	// 32 bytes hold the frame's header, field tags and lengths, the seq
	// and the CRC.
	return protocol.AppendFrame(make([]byte, 0, 32+len(f.ClientID)+len(batch)), protocol.Message{
		Type: protocol.TypeJournalRuns, ClientID: borrowString(f.ClientID), Seq: f.Seq, Payload: borrowString(batch),
	})
}

// appendChunked appends payload as consecutive frames built by frame,
// cut only at the record ends in ends (ascending, the last one
// len(payload)) so that no chunk exceeds recordChunkBytes unless a
// single record does. Chunks are numbered from 0.
func appendChunked(dst, payload []byte, ends []int, frame func(part int, chunk string) protocol.Message) ([]byte, error) {
	start := 0
	for i, part := 0, 0; i < len(ends); part++ {
		end := ends[i]
		for i++; i < len(ends) && ends[i]-start <= recordChunkBytes; i++ {
			end = ends[i]
		}
		var err error
		if dst, err = protocol.AppendFrame(dst, frame(part, borrowString(payload[start:end]))); err != nil {
			return dst, err
		}
		start = end
	}
	return dst, nil
}

// aggregateHash is an unsequenced run payload's identity in the cluster
// merge: FNV-64a over the uploading client's id (empty for a snapshot
// aggregate), a zero byte, and the payload as stored.
func aggregateHash(id, payload string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, id)
	h.Write([]byte{0})
	io.WriteString(h, payload)
	return h.Sum64()
}

// borrowString returns a string view of b without copying. Safe here
// because nothing writes b afterwards: every caller passes a view of an
// immutable, GC-managed file buffer or a freshly encoded payload.
func borrowString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// borrowBytes returns a read-only byte view of s without copying, for
// the payload parsers: they never write their input and copy whatever
// they keep.
func borrowBytes(s string) []byte {
	return unsafe.Slice(unsafe.StringData(s), len(s))
}

// Exported op-kind names for StateOp.Op (the op tags).
const (
	OpKindTestcases   = opTestcases
	OpKindClient      = opClient
	OpKindResults     = opResults
	OpKindJournalMeta = opJournalMeta
)

// StateOp is one decoded record of a snapshot or journal: what replay
// applies, and what ScanStateOps hands to readers that are not a server
// — the cluster merge walks per-node journals through it.
type StateOp struct {
	// Op is the op tag (OpKind*).
	Op string
	// ID is the client id (OpKindClient: the registered id;
	// OpKindResults: the uploading client, empty for a compacted
	// snapshot aggregate).
	ID string
	// Nonce is the registration nonce (OpKindClient).
	Nonce string
	// Snapshot is the machine description (OpKindClient).
	Snapshot *protocol.Snapshot
	// LastSeq is the client's highest batch folded into a compacted
	// snapshot (OpKindClient).
	LastSeq uint64
	// Seq is the upload batch sequence number (OpKindResults; 0 for
	// unsequenced or compacted payloads).
	Seq uint64
	// Payload holds the op's payload as stored, in binary: testcases
	// (OpKindTestcases; testcase.AppendBinary's form) or run records
	// (OpKindResults; core's form, which Runs decodes). A legacy text
	// payload is converted to binary before it gets here (legacy.go).
	Payload string

	// aggHash and part identify one chunk of a snapshot aggregate (a
	// results frame with no client id): the 8-byte content hash of the
	// whole aggregate and the chunk's index.
	aggHash string
	part    int
}

// Runs decodes an OpKindResults op's run records. The runs copy what
// they keep, so they outlive the scan's file buffer.
func (op StateOp) Runs() ([]*core.Run, error) {
	return core.ParseRunsBinary(borrowBytes(op.Payload))
}

// AggregateKey identifies an unsequenced OpKindResults op for the
// cluster merge's dedup: the content hash of the whole payload it
// belongs to, and its chunk index. A snapshot aggregate written as
// several chunks carries its hash in every chunk (so does a legacy
// aggregate, once converted, under the hash it was stored with); any
// other unsequenced record — an unsequenced upload — is chunk 0 of
// itself and is hashed here, as (ID, payload as stored): its binary
// batch, whether this build journaled it or converted a legacy text
// upload.
func (op StateOp) AggregateKey() (hash uint64, part int) {
	if op.aggHash != "" {
		return binary.LittleEndian.Uint64([]byte(op.aggHash)), op.part
	}
	return aggregateHash(op.ID, op.Payload), 0
}

// ScanStateOps parses one state file (a journal or a snapshot), calling
// fn for every op in file order. tolerateTail drops a torn final
// record — pass true for journals (a crash mid-append tears them),
// false for snapshots (written atomically). A missing file scans as
// empty; legacy state is converted in memory, and the file is not
// written. Records are cut by the scanner replay uses and decoded by
// the same decodeOp, so the two readers agree on every record, header
// versions included. Payloads are borrowed views of the file buffer,
// which is immutable and garbage-collected normally, so they stay
// valid even if retained.
func ScanStateOps(path string, tolerateTail bool, fn func(StateOp) error) error {
	data, err := readState(path)
	if err != nil {
		return err
	}
	sc := recordScanner{data: data, file: filepath.Base(path), tolerateTail: tolerateTail}
	var f protocol.Frame
	for r, ok := sc.next(); ok; r, ok = sc.next() {
		op, err := decodeOp(&r, &f)
		if err == nil {
			err = fn(op)
		}
		if err != nil {
			return errAt(&r, err)
		}
	}
	return nil
}

// StateFilePaths returns the snapshot and active journal paths of a
// state directory in replay order (snapshot first). Either file may be
// absent; ScanStateOps treats a missing file as empty. Once the
// journal has rotated, sealed segment files sit between the two — use
// StateFiles for the complete replay-ordered list.
func StateFilePaths(dir string) (snapshot, journal string) {
	return filepath.Join(dir, snapshotFile), journalPathIn(dir)
}

// readState reads one state file; a missing file reads as nil.
func readState(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	return data, err
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
