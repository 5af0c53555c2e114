package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"uucs/internal/core"
	"uucs/internal/protocol"
	"uucs/internal/stats"
	"uucs/internal/testcase"
)

// The legacy JSON record writer, kept as a test-only oracle. Builds up
// to journal format 3 wrote registrations and testcase batches as JSON
// op lines (uploads were already frames) and snapshots as JSON lines
// under a "meta" version 2 header. The server no longer writes any of
// it; these tests write the same logical history both ways and demand
// identical state from each.

// journalOp is the name these tests build ops under.
type journalOp = StateOp

// MarshalJSON writes op as the legacy builds wrote its JSON line.
func (op journalOp) MarshalJSON() ([]byte, error) {
	return json.Marshal(legacyOp{
		Op: op.Op, Ver: op.Ver, ID: op.ID, Nonce: op.Nonce, Snapshot: op.Snapshot,
		LastSeq: op.LastSeq, Seq: op.Seq, Payload: op.Payload,
	})
}

// jsonLineEncoder is a pooled buffer + encoder pair for one-line JSON
// encodings.
type jsonLineEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonLinePool = sync.Pool{New: func() any {
	e := &jsonLineEncoder{}
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

// appendJSONLine appends v's JSON encoding plus a trailing newline to
// dst via the pooled encoder.
func appendJSONLine(dst []byte, v any) ([]byte, error) {
	e := jsonLinePool.Get().(*jsonLineEncoder)
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		jsonLinePool.Put(e)
		return dst, err
	}
	dst = append(dst, e.buf.Bytes()...) // Encode already appended '\n'
	jsonLinePool.Put(e)
	return dst, nil
}

// marshalOp encodes one journal op as a newline-terminated JSON line.
func marshalOp(op journalOp) ([]byte, error) {
	return appendJSONLine(nil, op)
}

// legacySnapshot renders a state copy of s as the JSON snapshot the
// legacy SaveState wrote: a meta line, one testcase op, one client op
// per client with its LastSeq floor, and one results aggregate.
func legacySnapshot(s *Server, c stateCopy) ([]byte, error) {
	var out bytes.Buffer
	w := bufio.NewWriter(&out)
	emit := func(op journalOp) error {
		b, err := json.Marshal(op)
		if err != nil {
			return err
		}
		w.Write(b)
		return w.WriteByte('\n')
	}
	if err := emit(journalOp{Op: opMeta, Ver: stateVersion}); err != nil {
		return nil, err
	}
	if len(c.tcs) > 0 {
		var b strings.Builder
		for _, sl := range c.tcs {
			text, err := sl.encoding()
			if err != nil {
				return nil, err
			}
			b.WriteString(text)
		}
		if err := emit(journalOp{Op: opTestcases, Payload: b.String()}); err != nil {
			return nil, err
		}
	}
	for _, cl := range c.clients {
		snap := cl.snap
		if err := emit(journalOp{Op: opClient, ID: cl.id, Nonce: cl.nonce, Snapshot: &snap, LastSeq: cl.seq}); err != nil {
			return nil, err
		}
	}
	if c.held > 0 {
		b := core.AppendRuns(nil, s.Results()[:c.held], true)
		if err := emit(journalOp{Op: opResults, Payload: borrowString(b)}); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// legacyHeader is the jmeta frame the legacy builds opened a journal
// with.
func legacyHeader(t testing.TB) []byte {
	t.Helper()
	hdr, err := protocol.AppendFrame(nil, protocol.Message{Type: protocol.TypeJournalMeta, Ver: legacyJournalFormat})
	if err != nil {
		t.Fatal(err)
	}
	return hdr
}

// dualHistory applies one logical history to a journaling server, which
// writes frames into newDir, and records the same history in oldDir the
// way a legacy build would have written it.
type dualHistory struct {
	t              testing.TB
	s              *Server
	newDir, oldDir string
	old            []byte // the legacy active journal
}

func newDualHistory(t testing.TB, newDir, oldDir string) *dualHistory {
	t.Helper()
	s := New(1)
	if err := s.OpenState(newDir); err != nil {
		t.Fatal(err)
	}
	return &dualHistory{t: t, s: s, newDir: newDir, oldDir: oldDir, old: legacyHeader(t)}
}

func (h *dualHistory) legacyOp(op journalOp) {
	h.t.Helper()
	var err error
	if h.old, err = appendJSONLine(h.old, op); err != nil {
		h.t.Fatal(err)
	}
}

func (h *dualHistory) register(snap protocol.Snapshot, nonce string) string {
	h.t.Helper()
	h.s.regMu.Lock()
	_, retry := h.s.nonces[nonce]
	h.s.regMu.Unlock()
	id, err := h.s.register(snap, nonce)
	if err != nil {
		h.t.Fatal(err)
	}
	if !retry {
		h.legacyOp(journalOp{Op: opClient, ID: id, Nonce: nonce, Snapshot: &snap})
	}
	return id
}

func (h *dualHistory) addTestcases(tcs []*testcase.Testcase) {
	h.t.Helper()
	if err := h.s.AddTestcases(tcs...); err != nil {
		h.t.Fatal(err)
	}
	var b strings.Builder
	if err := testcase.EncodeAll(&b, tcs); err != nil {
		h.t.Fatal(err)
	}
	h.legacyOp(journalOp{Op: opTestcases, Payload: b.String()})
}

func (h *dualHistory) upload(id string, seq uint64, runs []*core.Run) {
	h.t.Helper()
	var b strings.Builder
	if err := core.EncodeRuns(&b, runs, true); err != nil {
		h.t.Fatal(err)
	}
	f := resultsFrame(h.t, id, seq, b.String())
	dup, err := ingest(h.s, f)
	if err != nil {
		h.t.Fatal(err)
	}
	if !dup {
		h.old = append(h.old, f.Raw()...)
	}
}

// save compacts both ways: SaveState on the live server, the legacy
// JSON snapshot of the same state copy in oldDir. Nothing races the
// save, so the legacy compaction leaves an empty journal behind.
func (h *dualHistory) save() {
	h.t.Helper()
	snap, err := legacySnapshot(h.s, h.s.copyState(h.oldDir))
	if err != nil {
		h.t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(h.oldDir, snapshotFile), snap, 0o644); err != nil {
		h.t.Fatal(err)
	}
	h.old = h.old[:0]
	if err := h.s.SaveState(h.newDir); err != nil {
		h.t.Fatal(err)
	}
}

func (h *dualHistory) close() {
	h.t.Helper()
	if err := h.s.Close(); err != nil {
		h.t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(h.oldDir, journalFile), h.old, 0o644); err != nil {
		h.t.Fatal(err)
	}
}

// writeBothWays writes one history — registrations with nonces (one
// retried), testcase batches (the second replacing part of the first),
// sequenced uploads (one retried), and a SaveState that records LastSeq
// floors, with more of each after it — into newDir as frames and into
// oldDir in the legacy format. chunk, when positive, lowers
// recordChunkBytes for the run so testcase batches and the snapshot
// aggregate are cut into several frames.
func writeBothWays(t testing.TB, newDir, oldDir string, chunk int) {
	t.Helper()
	if chunk > 0 {
		saved := recordChunkBytes
		recordChunkBytes = chunk
		defer func() { recordChunkBytes = saved }()
	}
	gen := func(prefix string, n int, seed uint64) []*testcase.Testcase {
		tcs, err := testcase.Generate(prefix, testcase.GeneratorConfig{
			Count: n, Rate: 1, Duration: 20,
			BlankFraction: 0.1, QueueFraction: 0.4, MaxCPU: 10, MaxDisk: 7,
		}, stats.NewStream(seed))
		if err != nil {
			t.Fatal(err)
		}
		return tcs
	}
	batch := func(client, seq int) []*core.Run {
		var runs []*core.Run
		for i := 0; i <= client%3; i++ {
			r := testRun()
			r.UserID = client
			r.Offset = float64(seq*100 + client*10 + i)
			runs = append(runs, r)
		}
		return runs
	}
	snapFor := func(i int) protocol.Snapshot {
		snap := testSnapshot()
		snap.Hostname = fmt.Sprintf("dual-host-%d", i)
		snap.Apps = []string{"word", fmt.Sprintf("app-%d", i)}
		return snap
	}

	h := newDualHistory(t, newDir, oldDir)
	h.addTestcases(gen("a", 12, 5))
	var ids []string
	for i := 0; i < 4; i++ {
		ids = append(ids, h.register(snapFor(i), fmt.Sprintf("dual-nonce-%d", i)))
	}
	h.register(snapFor(1), "dual-nonce-1") // a retry: same id, no record
	for seq := 1; seq <= 3; seq++ {
		for c, id := range ids {
			h.upload(id, uint64(seq), batch(c, seq))
		}
	}
	h.upload(ids[0], 2, batch(0, 2)) // a retry: dup, no record
	h.save()

	for seq := 4; seq <= 5; seq++ {
		for c, id := range ids[:3] {
			h.upload(id, uint64(seq), batch(c, seq))
		}
	}
	late := h.register(snapFor(9), "dual-nonce-late")
	h.upload(late, 1, batch(9, 1))
	h.addTestcases(append(gen("a", 2, 77), gen("b", 3, 6)...)) // a-0, a-1 replaced
	h.close()
}

// richFingerprint flattens every store LoadState restores: the result
// store in order, each client's snapshot and LastSeq, the nonce table,
// and the testcase store's encodings in store order.
func richFingerprint(t testing.TB, s *Server) string {
	t.Helper()
	var b strings.Builder
	if err := core.EncodeRuns(&b, s.Results(), true); err != nil {
		t.Fatal(err)
	}
	var clients []string
	for i := range s.shards {
		sh := &s.shards[i]
		for id, snap := range sh.clients {
			clients = append(clients, fmt.Sprintf("client %s %+v last=%d", id, snap, sh.lastSeq[id]))
		}
	}
	for nonce, id := range s.nonces {
		clients = append(clients, fmt.Sprintf("nonce %s %s", nonce, id))
	}
	sort.Strings(clients)
	b.WriteString(strings.Join(clients, "\n"))
	for _, sl := range s.testcases {
		text, err := sl.encoding()
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(text)
	}
	return b.String()
}

// frameRecords walks a state file and returns its records' frame
// types, failing on any record that is not a well-formed frame.
func frameRecords(t testing.TB, path string) []protocol.MsgType {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var types []protocol.MsgType
	var f protocol.Frame
	for pos := 0; pos < len(data); {
		if data[pos] != protocol.FrameMagic {
			t.Fatalf("%s: record at offset %d is not a frame: %q", path, pos, data[pos:min(len(data), pos+40)])
		}
		n, err := protocol.DecodeFrame(data[pos:], &f)
		if err != nil {
			t.Fatalf("%s: offset %d: %v", path, pos, err)
		}
		types = append(types, f.Type)
		pos += n
	}
	return types
}

// TestLegacyDifferentialLoad writes one history as frames and in the
// legacy JSON format and demands the identical restored state from
// both, at one and several replay workers — with the default chunk
// size and with one small enough to cut every testcase batch and the
// snapshot aggregate into several frames.
func TestLegacyDifferentialLoad(t *testing.T) {
	for _, chunk := range []int{0, 700} {
		t.Run(fmt.Sprintf("chunk=%d", chunk), func(t *testing.T) {
			newDir, oldDir := t.TempDir(), t.TempDir()
			writeBothWays(t, newDir, oldDir, chunk)

			snapTypes := frameRecords(t, filepath.Join(newDir, snapshotFile))
			journalTypes := frameRecords(t, filepath.Join(newDir, journalFile))
			count := func(types []protocol.MsgType, want protocol.MsgType) int {
				n := 0
				for _, ty := range types {
					if ty == want {
						n++
					}
				}
				return n
			}
			if snapTypes[0] != protocol.TypeJournalMeta {
				t.Errorf("snapshot opens with %q, want the jmeta header", snapTypes[0])
			}
			if chunk > 0 {
				if n := count(snapTypes, protocol.TypeResults); n < 2 {
					t.Errorf("snapshot aggregate in %d frame(s), want it cut into several", n)
				}
				if n := count(snapTypes, protocol.TypeJournalTestcases); n < 2 {
					t.Errorf("snapshot testcases in %d frame(s), want several", n)
				}
				if n := count(journalTypes, protocol.TypeJournalTestcases); n < 2 {
					t.Errorf("journaled testcase batch in %d frame(s), want several", n)
				}
			} else if n := count(snapTypes, protocol.TypeResults); n != 1 {
				t.Errorf("snapshot aggregate in %d frames, want 1", n)
			}

			for _, workers := range []int{1, 2, 8} {
				load := func(dir string) string {
					s := New(1)
					setProcs(t, workers)
					if err := s.LoadState(dir); err != nil {
						t.Fatal(err)
					}
					return richFingerprint(t, s)
				}
				if got, want := load(newDir), load(oldDir); got != want {
					t.Fatalf("workers=%d: framed state differs from the legacy state\n got %q\nwant %q", workers, got, want)
				}
			}
		})
	}
}

// legacyClients is how many clients the legacy directory fixtures
// register.
const legacyClients = 3

func legacyID(c int) string { return fmt.Sprintf("uucs-legacy-%d", c) }

// legacyTestcases is one testcase batch as a legacy JSON line.
func legacyTestcases(t testing.TB, n int, seed uint64) []byte {
	t.Helper()
	tcs, err := testcase.Generate("lg", testcase.GeneratorConfig{Count: n, Rate: 1, Duration: 20, MaxCPU: 10, MaxDisk: 7}, stats.NewStream(seed))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := testcase.EncodeAll(&b, tcs); err != nil {
		t.Fatal(err)
	}
	line, err := marshalOp(journalOp{Op: opTestcases, Payload: b.String()})
	if err != nil {
		t.Fatal(err)
	}
	return line
}

// legacyRegistrations is a testcase batch and legacyClients
// registrations, as the JSON lines every legacy build wrote them as.
func legacyRegistrations(t testing.TB) []byte {
	t.Helper()
	out := legacyTestcases(t, 4, 21)
	for c := 0; c < legacyClients; c++ {
		snap := testSnapshot()
		snap.Hostname = fmt.Sprintf("legacy-host-%d", c)
		var err error
		if out, err = appendJSONLine(out, journalOp{Op: opClient, ID: legacyID(c), Nonce: fmt.Sprintf("legacy-nonce-%d", c), Snapshot: &snap}); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// legacyUploads is one upload per client for each of seqs: JSON results
// lines as a v2 build journaled them when v2 is set, wire frames as a
// format-3 build did otherwise.
func legacyUploads(t testing.TB, v2 bool, seqs ...uint64) []byte {
	t.Helper()
	var out []byte
	for _, seq := range seqs {
		for c := 0; c < legacyClients; c++ {
			run := testRun()
			run.UserID = c
			run.Offset = float64(int(seq)*100 + c)
			payload := string(core.AppendRuns(nil, []*core.Run{run}, true))
			if !v2 {
				out = append(out, resultsFrame(t, legacyID(c), seq, payload).Raw()...)
				continue
			}
			var err error
			if out, err = appendJSONLine(out, journalOp{Op: opResults, ID: legacyID(c), Seq: seq, Payload: payload}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

// legacyDirs writes four legacy state directories and returns them by
// name: a v2-era journal (JSON lines, no header, a blank line between
// two of them); a format-3 journal
// (a jmeta 3 header, JSON registration and testcase lines, framed
// uploads); a "meta" v2 snapshot of that journal's state followed by
// sealed format-3 segments; and a replica journal of mixed headers —
// this build's frames, a legacy bootstrap (the snapshot and the
// format-3 journal concatenated), more frames, and a complete JSON
// line whose newline a crash ate.
func legacyDirs(t testing.TB) map[string]string {
	t.Helper()
	write := func(files map[string][]byte) string {
		dir := t.TempDir()
		for base, data := range files {
			if err := os.WriteFile(filepath.Join(dir, base), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	hdr3 := legacyHeader(t)
	format3 := join(hdr3, legacyRegistrations(t), legacyUploads(t, false, 1, 2))
	dir3 := write(map[string][]byte{journalFile: format3})
	src := New(1)
	if err := src.LoadState(dir3); err != nil {
		t.Fatal(err)
	}
	snap, err := legacySnapshot(src, src.copyState(""))
	if err != nil {
		t.Fatal(err)
	}

	late := testSnapshot()
	late.Hostname = "late-host"
	reg, err := appendClientRecord(nil, legacyID(9), "late-nonce", &late, 0)
	if err != nil {
		t.Fatal(err)
	}
	lateRuns := []*core.Run{testRun()}
	upload := recordOf(resultsFrame(t, legacyID(9), 1, string(core.AppendRuns(nil, lateRuns, true))), lateRuns)
	torn, err := marshalOp(journalOp{Op: opResults, ID: legacyID(0), Seq: 4, Payload: string(core.AppendRuns(nil, lateRuns, true))})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]string{
		"v2 journal":       write(map[string][]byte{journalFile: join(legacyRegistrations(t), []byte("\n \r\n"), legacyUploads(t, true, 1, 2))}),
		"format 3 journal": dir3,
		"meta snapshot and sealed segments": write(map[string][]byte{
			snapshotFile:                        snap,
			filepath.Base(segmentPathIn("", 1)): join(hdr3, legacyUploads(t, false, 3)),
			filepath.Base(segmentPathIn("", 2)): join(hdr3, legacyTestcases(t, 2, 99), legacyUploads(t, false, 4)),
			journalFile:                         join(hdr3, legacyUploads(t, false, 5)),
		}),
		"replica journal": write(map[string][]byte{
			journalFile: join(journalHeader, reg, upload, snap, format3, legacyUploads(t, false, 3), torn[:len(torn)-1]),
		}),
	}
}

// upgradeLegacy returns a state file's bytes converted to frames only,
// as the record scanner converts them, or nil if every record is a
// frame already. A framing error before the first record that is not
// a frame is left to the frame reader; an error converting from there
// on is returned, naming the record.
func upgradeLegacy(data []byte, file string, tolerateTail bool) ([]byte, error) {
	var conv []byte
	sc := recordScanner{data: data, file: file, tolerateTail: tolerateTail,
		onConvert: func(c []byte) error { conv = c; return nil }}
	for r, ok := sc.next(); ok; r, ok = sc.next() {
		if r.err != nil {
			if conv == nil && sc.converted {
				return nil, errAt(&r, r.err)
			}
			break
		}
	}
	return conv, nil
}

// readStateFile reads one state file as frames only, converting any
// legacy JSON lines and, when upgrade is set, writing the conversion
// over the file, as replay does. A missing file reads as nil.
func readStateFile(path string, tolerateTail, upgrade bool) ([]byte, error) {
	data, err := readState(path)
	if err != nil || data == nil {
		return data, err
	}
	conv, err := upgradeLegacy(data, filepath.Base(path), tolerateTail)
	if err != nil || conv == nil {
		return data, err
	}
	if upgrade {
		err = writeConverted(path, conv)
	}
	return conv, err
}

// upgradeFile converts one state file in place, as OpenState does.
func upgradeFile(t testing.TB, path string, tolerateTail bool) {
	t.Helper()
	if _, err := readStateFile(path, tolerateTail, true); err != nil {
		t.Fatal(err)
	}
}

// TestLegacyUpgradeCutsLargeRecords lowers recordChunkBytes so that a
// legacy snapshot's testcase line and run aggregate outgrow a frame:
// the upgrade cuts each into several frames at record ends, every
// aggregate chunk carries the whole aggregate's hash and its index, and
// the state restored is the state the uncut conversion restores.
func TestLegacyUpgradeCutsLargeRecords(t *testing.T) {
	dir := legacyDirs(t)["meta snapshot and sealed segments"]
	load := func() string {
		s := New(1)
		if err := s.LoadState(dir); err != nil {
			t.Fatal(err)
		}
		return richFingerprint(t, s)
	}
	want := load()
	defer func(saved int) { recordChunkBytes = saved }(recordChunkBytes)
	recordChunkBytes = 700
	if load() != want {
		t.Fatal("the cut conversion restores different state")
	}

	data, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	conv, err := upgradeLegacy(data, snapshotFile, false)
	if err != nil {
		t.Fatal(err)
	}
	var tcFrames int
	var parts []int
	var hashes []string
	var whole []byte
	var f protocol.Frame
	for pos := 0; pos < len(conv); {
		n, err := protocol.DecodeFrame(conv[pos:], &f)
		if err != nil {
			t.Fatal(err)
		}
		pos += n
		switch f.Type {
		case protocol.TypeTestcases:
			tcFrames++
		case protocol.TypeResults:
			parts = append(parts, f.Count)
			hashes = append(hashes, string(f.Nonce))
			whole = append(whole, f.Payload...)
		}
	}
	if tcFrames < 2 || len(parts) < 2 {
		t.Fatalf("testcases in %d frames, aggregate in %d; want both cut", tcFrames, len(parts))
	}
	// The chunks are the legacy payload cut verbatim, so together they
	// are the payload the hash covers.
	for i := range parts {
		if parts[i] != i || binary.LittleEndian.Uint64([]byte(hashes[i])) != aggregateHash("", string(whole)) {
			t.Fatalf("aggregate chunk %d carries part %d and hash %x", i, parts[i], hashes[i])
		}
	}
}
