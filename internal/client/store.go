// Package client implements the UUCS client (paper Figure 5, minus the
// Windows GUI): local text-file stores for testcases and results that
// let the client operate disconnected from the server, registration and
// hot sync against a server, randomized testcase scheduling with Poisson
// arrivals for the Internet-wide study, and a deterministic script mode
// for controlled experiments.
package client

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"uucs/internal/core"
	"uucs/internal/testcase"
)

// Store is the client's permanent storage: plain text files in one
// directory, mirroring the paper's design ("Both are Windows
// applications that store testcases and results on permanent storage in
// text files").
//
// The store is the client's crash recovery substrate. Completed runs
// accumulate in the pending file; at upload time they are sealed into
// an outbox batch file named by a persistent sequence number, and a
// batch file is only removed once the server acknowledged that exact
// sequence number. A client killed between any two steps resumes
// cleanly: leftover temp files are ignored, a torn trailing record in
// the pending file (crash mid-append) is salvaged away, and surviving
// outbox batches are re-sent under their original sequence numbers so
// the server can discard the ones it already counted.
type Store struct {
	dir string
}

// Store file names.
const (
	testcasesFile = "testcases.txt"
	pendingFile   = "results-pending.txt"
	archiveFile   = "results-uploaded.txt"
	idFile        = "clientid.txt"
	nonceFile     = "nonce.txt"
	seqFile       = "seq.txt"
	// outboxPrefix names sealed upload batches: outbox-<seq>.txt.
	outboxPrefix = "outbox-"
)

// OpenStore opens (creating if needed) a client store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("client: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("client: create store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) path(name string) string { return filepath.Join(s.dir, name) }

// readTrimmed returns the trimmed contents of a small state file, or ""
// when it does not exist.
func (s *Store) readTrimmed(name string) (string, error) {
	b, err := os.ReadFile(s.path(name))
	if errors.Is(err, fs.ErrNotExist) {
		return "", nil
	}
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(string(b)), nil
}

// ClientID returns the stored registration id, or "" when the client has
// never registered.
func (s *Store) ClientID() (string, error) {
	return s.readTrimmed(idFile)
}

// SetClientID persists the registration id.
func (s *Store) SetClientID(id string) error {
	if id == "" {
		return fmt.Errorf("client: refusing to store empty client id")
	}
	return os.WriteFile(s.path(idFile), []byte(id+"\n"), 0o644)
}

// Nonce returns the persistent registration nonce, or "" when none has
// been chosen yet.
func (s *Store) Nonce() (string, error) {
	return s.readTrimmed(nonceFile)
}

// SetNonce persists the registration nonce.
func (s *Store) SetNonce(nonce string) error {
	if nonce == "" {
		return fmt.Errorf("client: refusing to store empty nonce")
	}
	return os.WriteFile(s.path(nonceFile), []byte(nonce+"\n"), 0o644)
}

// NextSeq returns the sequence number the next sealed batch will use.
func (s *Store) NextSeq() (uint64, error) {
	text, err := s.readTrimmed(seqFile)
	if err != nil {
		return 0, err
	}
	if text == "" {
		return 1, nil
	}
	n, err := strconv.ParseUint(text, 10, 64)
	if err != nil || n == 0 {
		return 0, fmt.Errorf("client: corrupt sequence file %q", text)
	}
	return n, nil
}

func (s *Store) setNextSeq(n uint64) error {
	return s.writeAtomically(seqFile, func(f *os.File) error {
		_, err := fmt.Fprintf(f, "%d\n", n)
		return err
	})
}

// Testcases loads the local testcase store.
func (s *Store) Testcases() ([]*testcase.Testcase, error) {
	data, err := os.ReadFile(s.path(testcasesFile))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return testcase.Parse(data)
}

// SaveTestcases replaces the local testcase store.
func (s *Store) SaveTestcases(tcs []*testcase.Testcase) error {
	testcase.SortByID(tcs)
	return s.writeAtomically(testcasesFile, func(f *os.File) error {
		return testcase.EncodeAll(f, tcs)
	})
}

// AddTestcases merges new testcases into the store, replacing duplicates
// by ID.
func (s *Store) AddTestcases(tcs []*testcase.Testcase) (added int, err error) {
	existing, err := s.Testcases()
	if err != nil {
		return 0, err
	}
	byID := make(map[string]*testcase.Testcase, len(existing))
	for _, tc := range existing {
		byID[tc.ID] = tc
	}
	for _, tc := range tcs {
		if _, ok := byID[tc.ID]; !ok {
			added++
		}
		byID[tc.ID] = tc
	}
	merged := make([]*testcase.Testcase, 0, len(byID))
	for _, tc := range byID {
		merged = append(merged, tc)
	}
	return added, s.SaveTestcases(merged)
}

// AppendRun records a completed run in the pending store; it will be
// uploaded at the next hot sync.
func (s *Store) AppendRun(run *core.Run) error {
	f, err := os.OpenFile(s.path(pendingFile), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write(core.AppendRuns(nil, []*core.Run{run}, true))
	return err
}

// runRecordEnd terminates each text-encoded run record; a pending file
// that does not end with it was torn by a crash mid-append.
const runRecordEnd = "endrun\n"

// PendingRuns loads the runs not yet sealed for upload. A torn trailing
// record — the signature of a crash during AppendRun — is salvaged
// away: the valid prefix is kept (and written back, so the file is
// appendable again) and the partial record is dropped.
func (s *Store) PendingRuns() ([]*core.Run, error) {
	data, err := os.ReadFile(s.path(pendingFile))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	runs, err := core.ParseRuns(data)
	if err == nil {
		return runs, nil
	}
	// Try the longest prefix ending at a record boundary.
	cut := bytes.LastIndex(data, []byte(runRecordEnd))
	if cut < 0 {
		// No complete record at all: the whole file is one torn
		// record; drop it.
		if werr := s.writeAtomically(pendingFile, func(f *os.File) error { return nil }); werr != nil {
			return nil, werr
		}
		return nil, nil
	}
	prefix := data[:cut+len(runRecordEnd)]
	runs, err2 := core.ParseRuns(prefix)
	if err2 != nil {
		return nil, err // corruption inside the body, not a torn tail
	}
	if werr := s.writeAtomically(pendingFile, func(f *os.File) error {
		_, err := f.Write(prefix)
		return err
	}); werr != nil {
		return nil, werr
	}
	return runs, nil
}

// OutboxBatch is one sealed, not-yet-acknowledged upload batch.
type OutboxBatch struct {
	// Seq is the batch's persistent sequence number.
	Seq uint64
	// Runs are the batch's run records.
	Runs []*core.Run
}

func outboxName(seq uint64) string {
	return fmt.Sprintf("%s%08d.txt", outboxPrefix, seq)
}

// SealPending moves the pending runs into a new outbox batch under the
// next sequence number and returns that number (0 when there was
// nothing pending). The sequence counter is advanced before the batch
// file appears, so a crash in between wastes a number (the server
// accepts gaps) but can never reuse one.
func (s *Store) SealPending() (uint64, error) {
	runs, err := s.PendingRuns() // salvages a torn tail first
	if err != nil {
		return 0, err
	}
	if len(runs) == 0 {
		return 0, nil
	}
	seq, err := s.NextSeq()
	if err != nil {
		return 0, err
	}
	if err := s.setNextSeq(seq + 1); err != nil {
		return 0, err
	}
	if err := os.Rename(s.path(pendingFile), s.path(outboxName(seq))); err != nil {
		return 0, err
	}
	return seq, nil
}

// Outboxes returns every sealed, unacknowledged batch in sequence
// order.
func (s *Store) Outboxes() ([]OutboxBatch, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var out []OutboxBatch
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, outboxPrefix) || !strings.HasSuffix(name, ".txt") {
			continue
		}
		numText := strings.TrimSuffix(strings.TrimPrefix(name, outboxPrefix), ".txt")
		seq, err := strconv.ParseUint(numText, 10, 64)
		if err != nil {
			continue // stray file, not ours
		}
		data, err := os.ReadFile(s.path(name))
		if err != nil {
			return nil, err
		}
		runs, err := core.ParseRuns(data)
		if err != nil {
			return nil, fmt.Errorf("client: outbox %s: %w", name, err)
		}
		out = append(out, OutboxBatch{Seq: seq, Runs: runs})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}

// MarkBatchUploaded archives an acknowledged outbox batch and removes
// it. Unknown sequence numbers are a no-op (the batch was already
// archived by a previous attempt).
func (s *Store) MarkBatchUploaded(seq uint64) error {
	data, err := os.ReadFile(s.path(outboxName(seq)))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	if err := s.appendArchive(data); err != nil {
		return err
	}
	return os.Remove(s.path(outboxName(seq)))
}

func (s *Store) appendArchive(data []byte) error {
	archive, err := os.OpenFile(s.path(archiveFile), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := archive.Write(data); err != nil {
		archive.Close()
		return err
	}
	return archive.Close()
}

// UploadedRuns loads the archive of already-uploaded runs.
func (s *Store) UploadedRuns() ([]*core.Run, error) {
	data, err := os.ReadFile(s.path(archiveFile))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return core.ParseRuns(data)
}

// writeAtomically writes via a temp file and rename so a crash cannot
// corrupt the store; a leftover temp file from a kill between write and
// rename is simply ignored by every reader.
func (s *Store) writeAtomically(name string, fill func(*os.File) error) error {
	tmp, err := os.CreateTemp(s.dir, name+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := fill(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), s.path(name))
}
