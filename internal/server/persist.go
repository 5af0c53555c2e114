package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"unsafe"

	"uucs/internal/core"
	"uucs/internal/protocol"
	"uucs/internal/testcase"
)

// Server-side permanent storage. Like the client, the paper's server
// stores testcases and results in text files; this file round-trips the
// server's full state through a directory so restarts lose nothing.
//
// The layout is crash-safe: a compacted snapshot file written
// atomically (temp file + rename) plus an append-only journal. Every
// registration and accepted result batch is appended to the journal and
// synced to stable storage — by the group-commit writer in journal.go,
// one fsync per batch of concurrent ops — before it is acknowledged to
// the client. SaveState compacts: it records the journal's logical
// offset while holding every state lock (so the state copy provably
// covers all ops below the offset — each op is enqueued before it
// becomes visible under those locks), writes a fresh snapshot, then
// atomically replaces the journal with whatever was appended past that
// offset while the snapshot was being written (acked ops are never
// dropped). A crash at any point leaves either the old snapshot + full
// journal or the new snapshot + tail journal — and replay is idempotent
// (registrations dedup by nonce, result batches dedup by per-client
// sequence number, testcases dedup by ID), so both recover to the same
// state. A partial final journal record (crash mid-append) is detected
// and dropped.
//
// Record formats: the snapshot holds one JSON op per line. The journal
// mixes two record formats, distinguished per record by the first byte:
// '{' starts a JSON op line (the cold ops — registrations, testcases —
// plus every record a v2-era build wrote), and protocol.FrameMagic
// starts a v3 frame. Every result upload is journaled as a frame: a v3
// upload as the exact bytes the client sent, a v2 upload as the frame
// RecvFrame converted it to. The append is a memcpy, the record carries
// its own CRC, and replay re-validates it with the wire decoder instead
// of a JSON parse; JSON results lines are read-only replay input left
// by older builds. A fresh journal file opens with a self-identifying
// jmeta header frame; a v2-era journal has no header and replays
// through the same scanner unchanged, which is the whole migration
// story — no rewrite, no conversion. Torn-tail semantics per format: a JSON record is torn if
// its final newline is missing; a binary record is torn if the file
// ends before the frame's declared length (ErrShortFrame). A complete
// binary record that fails its CRC — e.g. a corrupted header mid-file —
// is never treated as tearing: it poisons the load, because a CRC-valid
// prefix cannot be reconstructed from a corrupt length field without
// risking silently mis-parsing everything after it.

// State file names.
const (
	snapshotFile = "snapshot.txt"
	journalFile  = "journal.txt"
)

// Journal op kinds.
const (
	opMeta        = "meta"
	opTestcases   = "tc"
	opClient      = "client"
	opResults     = "results"
	opJournalMeta = "jmeta"
)

// stateVersion identifies the state file format.
const stateVersion = 2

// journalFormatVersion identifies the journal record format a jmeta
// header frame declares. Version 3 is the first to carry a header at
// all (v2 journals are pure JSON lines and headerless), so the only
// accepted value is 3; a higher one means a future build wrote records
// this build cannot be sure it parses correctly, which must poison the
// load rather than mis-parse.
const journalFormatVersion = 3

// testHookAfterSnapshot, when non-nil, runs between SaveState's
// snapshot write and its journal compaction — the window in which a
// live server keeps accepting (journaling and acking) ops that the
// snapshot's state copy predates. Tests use it to pin that race open.
var testHookAfterSnapshot func(*Server)

// journalOp is one line of the snapshot or journal.
type journalOp struct {
	Op string `json:"op"`
	// Ver is the format version (opMeta).
	Ver int `json:"ver,omitempty"`
	// ID is the client id (opClient: the registered id; opResults: the
	// uploading client).
	ID string `json:"id,omitempty"`
	// Nonce is the registration nonce (opClient).
	Nonce string `json:"nonce,omitempty"`
	// Snapshot is the machine description (opClient).
	Snapshot *protocol.Snapshot `json:"snapshot,omitempty"`
	// LastSeq is the client's highest applied batch (opClient, snapshot
	// compaction only).
	LastSeq uint64 `json:"last_seq,omitempty"`
	// Seq is the batch sequence number (opResults).
	Seq uint64 `json:"seq,omitempty"`
	// Payload holds text-encoded testcases (opTestcases) or run
	// records (opResults).
	Payload string `json:"payload,omitempty"`
}

// OpenState attaches the server to a state directory: it restores any
// existing snapshot + journal, then starts the group-commit journal
// writer so every subsequent registration and accepted result batch is
// durable before it is acknowledged. Call SaveState periodically to
// compact. JournalBatch and JournalDelay must be set before OpenState.
func (s *Server) OpenState(dir string) error {
	if dir == "" {
		return fmt.Errorf("server: empty state directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tail, err := s.loadStateDir(dir)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, journalFile), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	size := fi.Size()
	// Crash repair: replay tolerated a torn final record, but appending
	// after one would bury it mid-file where the next replay must treat
	// it as corruption. Seal a cleanly-applied JSON line with the
	// newline the crash ate; truncate away anything replay dropped.
	if tail.terminate {
		if _, err := f.Write([]byte{'\n'}); err != nil {
			f.Close()
			return err
		}
		size = tail.size + 1
	} else if size > tail.size {
		if err := f.Truncate(tail.size); err != nil {
			f.Close()
			return err
		}
		size = tail.size
	}
	if size == 0 {
		// Fresh journal: write the self-identifying format header. It
		// goes straight to the file, outside the journal writer, so it
		// is neither counted as an op (crash-after hooks and op counts
		// see only real mutations) nor acked to anyone.
		hdr, err := protocol.AppendFrame(nil, protocol.Message{Type: protocol.TypeJournalMeta, Ver: journalFormatVersion})
		if err != nil {
			f.Close()
			return err
		}
		if _, err := f.Write(hdr); err != nil {
			f.Close()
			return err
		}
		size = int64(len(hdr))
	}
	// Register any sealed segments already on disk so compaction can
	// drop them once a snapshot covers them. At open, every surviving
	// physical byte counts as logical (skip stays zero): logical offsets
	// are session-local, and assigning segment bases cumulatively from
	// zero keeps enq = "total logical bytes on disk" exactly as for a
	// journal with no sealed segments.
	jpaths, err := journalFilesIn(dir)
	if err != nil {
		f.Close()
		return err
	}
	var segs []segInfo
	var segBase int64
	nextSeq := 0
	for _, p := range jpaths[:len(jpaths)-1] {
		sfi, err := os.Stat(p)
		if err != nil {
			f.Close()
			return err
		}
		seq, _ := segmentSeq(filepath.Base(p))
		segs = append(segs, segInfo{path: p, seq: seq, base: segBase, size: sfi.Size()})
		segBase += sfi.Size()
		nextSeq = seq + 1
	}
	jw := newJournalWriter(f, segBase+size, s.JournalBatch, s.JournalDelay)
	jw.dir = dir
	jw.segBytes = s.JournalSegmentBytes
	if jw.segBytes <= 0 {
		jw.segBytes = defaultJournalSegmentBytes
	}
	jw.segs = segs
	jw.nextSeq = nextSeq
	jw.base = segBase
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
	tcs     []*tcSlot
	runs    []*core.Run
	clients []clientEntry
	// journalOff is the logical journal offset the copy covers; ops at
	// or past it must survive compaction. Valid only when compact.
	journalOff int64
	journaling bool
	compact    bool
	jw         *journalWriter
}

type clientEntry struct {
	id    string
	nonce string
	snap  protocol.Snapshot
	seq   uint64
}

// copyState takes every state lock in hierarchy order (regMu, tcMu,
// shards, resMu) and copies the stores. Because every mutation enqueues
// its journal op before becoming visible under these locks, the copy
// covers every journal op below the recorded offset — the invariant
// that makes compaction lossless on a live server.
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
	s.resMu.Lock()

	c := stateCopy{
		jw:         jw,
		journaling: jw != nil,
		compact:    jw != nil && stateDir == dir,
	}
	c.tcs = slices.Clone(s.testcases)
	c.runs = make([]*core.Run, len(s.results))
	copy(c.runs, s.results)
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
	if c.compact {
		// Everything enqueued so far is visible in the copy above; the
		// tail past this offset is preserved by compactTo.
		c.journalOff = jw.enqueued()
	}

	s.resMu.Unlock()
	for i := numShards - 1; i >= 0; i-- {
		s.shards[i].mu.Unlock()
	}
	s.tcMu.RUnlock()
	s.regMu.Unlock()
	sort.Slice(c.clients, func(i, j int) bool { return c.clients[i].id < c.clients[j].id })
	return c
}

// SaveState writes a compacted snapshot of the server's stores to dir
// (creating it if needed) and compacts the journal. It is safe to call
// on a live server: registrations and result batches keep flowing while
// the snapshot is written, and any op journaled in that window — already
// acked to its client — is preserved in the compacted journal rather
// than truncated away, so the journal-before-ack guarantee holds across
// compaction.
func (s *Server) SaveState(dir string) error {
	if dir == "" {
		return fmt.Errorf("server: empty state directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	c := s.copyState(dir)

	err := writeFileAtomic(filepath.Join(dir, snapshotFile), func(f *os.File) error {
		w := bufio.NewWriter(f)
		emit := func(op journalOp) error {
			b, err := json.Marshal(op)
			if err != nil {
				return err
			}
			w.Write(b)
			return w.WriteByte('\n')
		}
		if err := emit(journalOp{Op: opMeta, Ver: stateVersion}); err != nil {
			return err
		}
		if len(c.tcs) > 0 {
			// The stored encodings, rendering any slot replay left empty.
			var b strings.Builder
			for _, sl := range c.tcs {
				text, err := sl.encoding()
				if err != nil {
					return err
				}
				b.WriteString(text)
			}
			if err := emit(journalOp{Op: opTestcases, Payload: b.String()}); err != nil {
				return err
			}
		}
		for _, cl := range c.clients {
			snap := cl.snap
			if err := emit(journalOp{Op: opClient, ID: cl.id, Nonce: cl.nonce, Snapshot: &snap, LastSeq: cl.seq}); err != nil {
				return err
			}
		}
		if len(c.runs) > 0 {
			b := core.AppendRuns(nil, c.runs, true)
			if err := emit(journalOp{Op: opResults, Payload: borrowString(b)}); err != nil {
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

	if c.compact {
		// The snapshot covers the journal below c.journalOff. Ops
		// appended past it while the snapshot was being written are
		// journaled and acked but in neither the snapshot nor (after a
		// blind truncate) the journal — so carry that tail into the
		// compacted journal. A crash before the swap is harmless: old
		// prefix + tail replay dedups. The barrier flushes the queue so
		// the on-disk file is complete through the offset.
		if err := c.jw.barrier(); err != nil {
			return err
		}
		return c.jw.compactTo(c.journalOff, journalPathIn(dir))
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
// file — replayed on top. Record decode runs on ReplayWorkers
// goroutines with per-shard apply queues (replay.go); the restored
// stores are bit-identical to a serial replay at any worker count.
// Missing files are treated as empty stores, so a fresh directory
// loads cleanly. A truncated final record in the active journal — the
// signature of a crash mid-append — is dropped; corruption anywhere
// else (including a torn tail inside a sealed segment, or a gap in the
// segment sequence) is an error.
func (s *Server) LoadState(dir string) error {
	if dir == "" {
		return fmt.Errorf("server: empty state directory")
	}
	_, err := s.loadStateDir(dir)
	return err
}

// scanOpsFile parses one state file record by record, calling fn per
// op. A missing file is an empty file. Each record's format is
// identified by its first byte: a verbatim v3 wire frame
// (protocol.FrameMagic) or a newline-terminated JSON op line. Binary
// record payloads are handed to fn as borrowed views of the file
// buffer — the buffer is immutable and garbage-collected normally, so
// the views stay valid even if retained; replay never copies or
// re-encodes a journaled frame.
//
// tolerateTail drops a torn final record: a JSON line with no
// terminating newline (plus any parse/fn error on it), or a binary
// frame the file ends inside (ErrShortFrame). A complete binary frame
// that fails its CRC or its fn is corruption at any position and
// poisons the scan — it cannot be tearing, because tearing cannot
// manufacture a valid CRC trailer.
func scanOpsFile(path string, tolerateTail bool, fn func(journalOp) error) error {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	base := filepath.Base(path)
	rec := 0
	pos := 0
	var f protocol.Frame
	for pos < len(data) {
		switch data[pos] {
		case '\n', '\r', ' ', '\t':
			pos++ // blank separators between JSON lines
			continue
		}
		rec++
		if data[pos] == protocol.FrameMagic {
			n, err := protocol.DecodeFrame(data[pos:], &f)
			if err != nil {
				if tolerateTail && errors.Is(err, protocol.ErrShortFrame) {
					return nil // torn tail: crash mid-append
				}
				return fmt.Errorf("server: %s record %d (offset %d): %w", base, rec, pos, err)
			}
			op, err := frameOp(&f)
			if err == nil {
				err = fn(op)
			}
			if err != nil {
				return fmt.Errorf("server: %s record %d (offset %d): %w", base, rec, pos, err)
			}
			pos += n
			continue
		}
		nl := bytes.IndexByte(data[pos:], '\n')
		torn := nl < 0
		var line []byte
		if torn {
			line = data[pos:]
			pos = len(data)
		} else {
			line = data[pos : pos+nl]
			pos += nl + 1
		}
		var op journalOp
		if err := json.Unmarshal(line, &op); err != nil {
			if tolerateTail && torn {
				return nil
			}
			return fmt.Errorf("server: %s record %d: %w", base, rec, err)
		}
		if err := fn(op); err != nil {
			if tolerateTail && torn {
				return nil
			}
			return fmt.Errorf("server: %s record %d: %w", base, rec, err)
		}
	}
	return nil
}

// frameOp converts a journaled wire frame into its journalOp view. The
// payload borrows the frame's bytes without copying.
func frameOp(f *protocol.Frame) (journalOp, error) {
	switch f.Type {
	case protocol.TypeJournalMeta:
		return journalOp{Op: opJournalMeta, Ver: f.Ver}, nil
	case protocol.TypeResults:
		return journalOp{Op: opResults, ID: string(f.ClientID), Seq: f.Seq, Payload: borrowString(f.Payload)}, nil
	default:
		return journalOp{}, fmt.Errorf("unexpected %q frame in journal", f.Type)
	}
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

// Exported op-kind names for StateOp.Kind (the on-disk op tags).
const (
	OpKindMeta        = opMeta
	OpKindTestcases   = opTestcases
	OpKindClient      = opClient
	OpKindResults     = opResults
	OpKindJournalMeta = opJournalMeta
)

// StateOp is the exported view of one journal/snapshot op, for
// consumers that read state files without being a server — the cluster
// merge walks per-node journals through it.
type StateOp struct {
	// Kind is the op tag (OpKind*).
	Kind string
	// Ver is the state format version (OpKindMeta).
	Ver int
	// ID is the client id (OpKindClient: the registered id;
	// OpKindResults: the uploading client, empty for a compacted
	// snapshot aggregate).
	ID string
	// Nonce is the registration nonce (OpKindClient).
	Nonce string
	// LastSeq is the client's highest batch folded into a compacted
	// snapshot (OpKindClient).
	LastSeq uint64
	// Seq is the upload batch sequence number (OpKindResults; 0 for
	// unsequenced or compacted payloads).
	Seq uint64
	// Payload holds text-encoded testcases or run records.
	Payload string
}

// PayloadBytes returns a read-only byte view of op.Payload, for the
// payload parsers, without copying it.
func (op StateOp) PayloadBytes() []byte { return borrowBytes(op.Payload) }

// ScanStateOps parses one state file (a journal or a snapshot), calling
// fn for every op in file order. tolerateTail drops a torn final line —
// pass true for journals (a crash mid-append tears them), false for
// snapshots (written atomically). A missing file scans as empty. It
// validates op meta versions like a state load would.
func ScanStateOps(path string, tolerateTail bool, fn func(StateOp) error) error {
	return scanOpsFile(path, tolerateTail, func(op journalOp) error {
		if op.Op == opMeta && op.Ver != stateVersion {
			return fmt.Errorf("unsupported state version %d", op.Ver)
		}
		if op.Op == opJournalMeta && op.Ver != journalFormatVersion {
			return fmt.Errorf("unsupported journal format version %d", op.Ver)
		}
		return fn(StateOp{
			Kind: op.Op, Ver: op.Ver, ID: op.ID, Nonce: op.Nonce,
			LastSeq: op.LastSeq, Seq: op.Seq, Payload: op.Payload,
		})
	})
}

// StateFilePaths returns the snapshot and active journal paths of a
// state directory in replay order (snapshot first). Either file may be
// absent; ScanStateOps treats a missing file as empty. Once the
// journal has rotated, sealed segment files sit between the two — use
// StateFiles for the complete replay-ordered list.
func StateFilePaths(dir string) (snapshot, journal string) {
	return filepath.Join(dir, snapshotFile), journalPathIn(dir)
}

// applyOp replays one journal op into the in-memory stores,
// deduplicating so replay is idempotent.
func (s *Server) applyOp(op journalOp) error {
	switch op.Op {
	case opMeta:
		if op.Ver != stateVersion {
			return fmt.Errorf("unsupported state version %d", op.Ver)
		}
		return nil
	case opJournalMeta:
		// The journal format header. A replica journal can carry several
		// (one per bootstrap segment shipped after a primary restart);
		// each just re-declares the format.
		if op.Ver != journalFormatVersion {
			return fmt.Errorf("unsupported journal format version %d", op.Ver)
		}
		return nil
	case opTestcases:
		tcs, err := testcase.Parse(borrowBytes(op.Payload))
		if err != nil {
			return err
		}
		return s.addTestcases(tcs, false)
	case opClient:
		return s.applyClientShard(&op)
	case opResults:
		runs, err := core.ParseRuns(borrowBytes(op.Payload))
		if err != nil {
			return err
		}
		keep, err := s.applyResultsShard(&op)
		if err != nil || !keep {
			return err
		}
		s.resMu.Lock()
		s.results = append(s.results, runs...)
		s.resMu.Unlock()
		return nil
	default:
		return fmt.Errorf("unknown op %q", op.Op)
	}
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

func writeFileAtomic(path string, fill func(*os.File) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := fill(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
