package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"uucs/internal/core"
	"uucs/internal/stats"
	"uucs/internal/testcase"
)

// fabRun fabricates one distinct, encodable run.
func fabRun(client, seq, i int) *core.Run {
	res := []testcase.Resource{testcase.CPU, testcase.Memory, testcase.Disk}[i%3]
	return &core.Run{
		TestcaseID: fmt.Sprintf("tc-%03d", (client*31+seq*7+i)%97),
		Task:       testcase.IE, UserID: client,
		Terminated: core.Discomfort, Offset: float64(seq*100 + i),
		PrimaryResource: res,
		Levels:          map[testcase.Resource]float64{res: float64(client) + float64(seq)/8},
		LastFive:        map[testcase.Resource][]float64{res: {1, 2, 3, 4, float64(i)}},
	}
}

// canonical is the merge's canonical form, computed independently:
// each run encoded alone, encodings sorted, concatenated.
func canonical(t *testing.T, runs []*core.Run) string {
	t.Helper()
	encs := make([]string, 0, len(runs))
	for _, r := range runs {
		var b strings.Builder
		if err := core.EncodeRuns(&b, []*core.Run{r}, true); err != nil {
			t.Fatal(err)
		}
		encs = append(encs, b.String())
	}
	sort.Strings(encs)
	return strings.Join(encs, "")
}

func encodePayload(t *testing.T, runs []*core.Run) string {
	t.Helper()
	var b strings.Builder
	if err := core.EncodeRuns(&b, runs, true); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// op serializes one state-file line in the on-disk journal format.
func op(t *testing.T, fields map[string]any) string {
	t.Helper()
	b, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

func writeStateDir(t *testing.T, root, name, snapshot, journal string) string {
	t.Helper()
	dir := filepath.Join(root, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if snapshot != "" {
		if err := os.WriteFile(filepath.Join(dir, "snapshot.txt"), []byte(snapshot), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if journal != "" {
		if err := os.WriteFile(filepath.Join(dir, "journal.txt"), []byte(journal), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func clientOp(t *testing.T, id string, lastSeq uint64) string {
	fields := map[string]any{
		"op": "client", "id": id, "nonce": "n-" + id,
		"snapshot": map[string]any{
			"hostname": "h-" + id, "os": "winxp",
			"cpu_ghz": 2.0, "mem_mb": 512.0, "disk_gb": 80.0,
		},
	}
	if lastSeq > 0 {
		fields["last_seq"] = lastSeq
	}
	return op(t, fields)
}

func resultsOp(t *testing.T, id string, seq uint64, payload string) string {
	fields := map[string]any{"op": "results", "payload": payload}
	if id != "" {
		fields["id"] = id
	}
	if seq > 0 {
		fields["seq"] = seq
	}
	return op(t, fields)
}

func mergeDirs(t *testing.T, dirs []string) (string, MergeStats) {
	t.Helper()
	var b strings.Builder
	st, err := MergeDirs(&b, dirs)
	if err != nil {
		t.Fatal(err)
	}
	return b.String(), st
}

// TestMergeDeterministicUnderOrderAndDuplication is the merge property
// test: per-node journals merged in any order, with duplicated shipped
// segments mixed in, yield byte-identical output — the exact bytes
// uucs-analyze ingests, so analyze output is byte-identical too.
func TestMergeDeterministicUnderOrderAndDuplication(t *testing.T) {
	rng := stats.NewStream(4321)
	const clients, batches, nodes = 9, 7, 3

	var all []*core.Run
	journals := make([]string, nodes)
	for c := 0; c < clients; c++ {
		node := c % nodes
		id := fmt.Sprintf("uucs-%016x", uint64(c)+1)
		journals[node] += clientOp(t, id, 0)
		for s := 1; s <= batches; s++ {
			var runs []*core.Run
			for i := 0; i < 1+int(rng.Uint64()%3); i++ {
				runs = append(runs, fabRun(c, s, i))
			}
			all = append(all, runs...)
			journals[node] += resultsOp(t, id, uint64(s), encodePayload(t, runs))
		}
	}

	root := t.TempDir()
	var dirs []string
	for n := 0; n < nodes; n++ {
		dirs = append(dirs, writeStateDir(t, root, fmt.Sprintf("node-n%d", n), "", journals[n]))
	}
	// Duplicated shipped segments: each node's replica is a prefix of
	// its journal (cut at a line boundary), plus one full duplicate.
	for n := 0; n < nodes; n++ {
		lines := strings.SplitAfter(journals[n], "\n")
		cut := int(rng.Uint64() % uint64(len(lines)))
		prefix := strings.Join(lines[:cut], "")
		dirs = append(dirs, writeStateDir(t, root, fmt.Sprintf("node-n%d/replica-n%d", (n+1)%nodes, n), "", prefix))
	}
	dirs = append(dirs, writeStateDir(t, root, "node-n0-copy", "", journals[0]))

	want := canonical(t, all)
	got, st := mergeDirs(t, dirs)
	if got != want {
		t.Fatal("merged output differs from canonical run set")
	}
	if st.Batches != clients*batches {
		t.Errorf("kept %d batches, want %d", st.Batches, clients*batches)
	}
	if st.DupBatches == 0 {
		t.Error("no duplicate batches dropped; the test duplicated plenty")
	}
	if st.Runs != len(all) {
		t.Errorf("merged %d runs, want %d", st.Runs, len(all))
	}

	// Any permutation of sources merges to the same bytes.
	for trial := 0; trial < 8; trial++ {
		perm := append([]string{}, dirs...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		if out, _ := mergeDirs(t, perm); out != want {
			t.Fatalf("merge order %v changed the output", perm)
		}
	}

	// MergeTree discovers the same sources from the tree root.
	treeOut, treeSt := "", MergeStats{}
	{
		var b strings.Builder
		st, err := MergeTree(&b, root)
		if err != nil {
			t.Fatal(err)
		}
		treeOut, treeSt = b.String(), st
	}
	if treeOut != want {
		t.Error("MergeTree output differs from explicit MergeDirs")
	}
	if treeSt.Sources != len(dirs) {
		t.Errorf("MergeTree found %d sources, want %d", treeSt.Sources, len(dirs))
	}
}

// TestMergeSnapshotFloors checks compaction handling: a snapshot's
// aggregate payload covers batches up to each client's LastSeq, so raw
// copies of those batches (e.g. on a replica that missed the
// compaction) must be dropped, not double-counted.
func TestMergeSnapshotFloors(t *testing.T) {
	id := "uucs-0000000000000001"
	b1 := []*core.Run{fabRun(1, 1, 0)}
	b2 := []*core.Run{fabRun(1, 2, 0), fabRun(1, 2, 1)}
	b3 := []*core.Run{fabRun(1, 3, 0)}

	// Compacted primary: snapshot folds batches 1–2, journal has batch 3.
	snapshot := op(t, map[string]any{"op": "meta", "ver": 2}) +
		clientOp(t, id, 2) +
		resultsOp(t, "", 0, encodePayload(t, append(append([]*core.Run{}, b1...), b2...)))
	journal := resultsOp(t, id, 3, encodePayload(t, b3))
	root := t.TempDir()
	primary := writeStateDir(t, root, "node-a", snapshot, journal)
	// Replica: raw batches 1–3 (never compacted), duplicating 1–2.
	replica := writeStateDir(t, root, "node-b/replica-a", "",
		clientOp(t, id, 0)+
			resultsOp(t, id, 1, encodePayload(t, b1))+
			resultsOp(t, id, 2, encodePayload(t, b2))+
			resultsOp(t, id, 3, encodePayload(t, b3)))

	want := canonical(t, append(append(append([]*core.Run{}, b1...), b2...), b3...))
	for _, dirs := range [][]string{{primary, replica}, {replica, primary}} {
		got, st := mergeDirs(t, dirs)
		if got != want {
			t.Fatalf("merge %v diverged from canonical dataset", dirs)
		}
		if st.Covered != 2 {
			t.Errorf("covered = %d, want 2 (batches folded into the snapshot)", st.Covered)
		}
		if st.Aggregates != 1 || st.Batches != 1 {
			t.Errorf("aggregates=%d batches=%d, want 1 and 1", st.Aggregates, st.Batches)
		}
		if st.Runs != 4 {
			t.Errorf("runs = %d, want 4", st.Runs)
		}
	}
}

// buildMergeFixture fabricates a multi-node tree of state directories
// with duplicated shipped prefixes, returning the source dirs and the
// full fabricated run set.
func buildMergeFixture(t *testing.T, root string) ([]string, []*core.Run) {
	t.Helper()
	rng := stats.NewStream(8765)
	const clients, batches, nodes = 8, 6, 3

	var all []*core.Run
	journals := make([]string, nodes)
	for c := 0; c < clients; c++ {
		node := c % nodes
		id := fmt.Sprintf("uucs-%016x", uint64(c)+1)
		journals[node] += clientOp(t, id, 0)
		for s := 1; s <= batches; s++ {
			var runs []*core.Run
			for i := 0; i < 1+int(rng.Uint64()%3); i++ {
				runs = append(runs, fabRun(c, s, i))
			}
			all = append(all, runs...)
			journals[node] += resultsOp(t, id, uint64(s), encodePayload(t, runs))
		}
	}
	var dirs []string
	for n := 0; n < nodes; n++ {
		dirs = append(dirs, writeStateDir(t, root, fmt.Sprintf("node-n%d", n), "", journals[n]))
	}
	for n := 0; n < nodes; n++ {
		lines := strings.SplitAfter(journals[n], "\n")
		cut := int(rng.Uint64() % uint64(len(lines)))
		prefix := strings.Join(lines[:cut], "")
		dirs = append(dirs, writeStateDir(t, root, fmt.Sprintf("node-n%d/replica-n%d", (n+1)%nodes, n), "", prefix))
	}
	return dirs, all
}

// TestMergeStreamingMatchesSerial pins the streaming rewrite's
// bit-identity contract: any worker count and any spill threshold —
// including one small enough to force every chunk to disk — produces
// the exact bytes of the serial in-memory merge.
func TestMergeStreamingMatchesSerial(t *testing.T) {
	dirs, all := buildMergeFixture(t, t.TempDir())
	want := canonical(t, all)

	serial := func() string {
		var b strings.Builder
		setProcs(t, 1)
		st, err := MergeDirsOpts(&b, dirs, MergeOptions{SpillBytes: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		if st.Spills != 0 {
			t.Fatalf("serial baseline spilled %d chunks with a 1GB threshold", st.Spills)
		}
		return b.String()
	}()
	if serial != want {
		t.Fatal("serial merge output differs from the canonical run set")
	}

	for _, workers := range []int{1, 2, 8} {
		for _, spill := range []int{0, 4096, 1} {
			var b strings.Builder
			setProcs(t, workers)
			opt := MergeOptions{SpillBytes: spill, TempDir: t.TempDir()}
			st, err := MergeDirsOpts(&b, dirs, opt)
			if err != nil {
				t.Fatalf("workers=%d spill=%d: %v", workers, spill, err)
			}
			if b.String() != serial {
				t.Fatalf("workers=%d spill=%d: output differs from serial merge", workers, spill)
			}
			if spill == 1 {
				// A 1-byte threshold spills every non-empty chunk; the
				// spilled bytes cover the whole encoded dataset plus
				// varint length prefixes.
				if st.Spills == 0 {
					t.Fatalf("workers=%d spill=1: nothing spilled", workers)
				}
				if st.SpilledBytes <= int64(len(serial)) {
					t.Errorf("workers=%d spill=1: spilled %d bytes, want > %d (dataset + framing)",
						workers, st.SpilledBytes, len(serial))
				}
			}
			if spill == 0 && st.Spills != 0 {
				t.Errorf("workers=%d: default threshold spilled %d chunks on a tiny dataset", workers, st.Spills)
			}
		}
	}
}

// TestMergedRunsStreamingSpill checks the decoded-run fold over the
// merge stream: spilled records lose their in-memory decoded form and
// are re-decoded from encoding, so the run set must match the in-memory
// path exactly, in the same (sorted) order.
func TestMergedRunsStreamingSpill(t *testing.T) {
	root := t.TempDir()
	_, all := buildMergeFixture(t, root)
	want := canonical(t, all)

	setProcs(t, 1)
	inMem, stMem, err := MergedRunsOpts(root, MergeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stMem.Spills != 0 {
		t.Fatalf("in-memory pass spilled %d chunks", stMem.Spills)
	}
	setProcs(t, 4)
	spilled, stSpill, err := MergedRunsOpts(root, MergeOptions{SpillBytes: 1, TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if stSpill.Spills == 0 {
		t.Fatal("spill pass kept everything in memory")
	}
	if canonical(t, inMem) != want || canonical(t, spilled) != want {
		t.Fatal("MergedRuns datasets diverge from the canonical run set")
	}
	if len(inMem) != len(spilled) {
		t.Fatalf("in-memory %d runs, spilled %d", len(inMem), len(spilled))
	}
	// Same order, not just same set: both streams emit ascending
	// canonical encodings.
	for i := range inMem {
		if encodePayload(t, []*core.Run{inMem[i]}) != encodePayload(t, []*core.Run{spilled[i]}) {
			t.Fatalf("run %d differs between the in-memory and spilled streams", i)
		}
	}
}

// setProcs sets GOMAXPROCS to n for the rest of the test: the merge
// scans on as many workers as GOMAXPROCS allows.
func setProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestMergeReportsFirstCorruptDir pins the merge's error contract: with
// several corrupt sources, the error names the first of them in dirs
// order, whichever worker finds its corruption first.
func TestMergeReportsFirstCorruptDir(t *testing.T) {
	dirs, _ := buildMergeFixture(t, t.TempDir())
	// A snapshot precedes the journal in replay order, so garbage in it
	// is corruption, never a torn tail.
	for _, i := range []int{1, 4} {
		if err := os.WriteFile(filepath.Join(dirs[i], "snapshot.txt"), []byte("{not a state op\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	reversed := slices.Clone(dirs)
	slices.Reverse(reversed)
	for _, procs := range []int{1, 4} {
		setProcs(t, procs)
		for _, order := range []struct {
			dirs  []string
			first string
		}{{dirs, dirs[1]}, {reversed, dirs[4]}} {
			for range 20 {
				_, err := MergeDirs(io.Discard, order.dirs)
				if err == nil {
					t.Fatalf("GOMAXPROCS=%d: corrupt sources merged", procs)
				}
				if want := filepath.Join(order.first, "snapshot.txt"); !strings.Contains(err.Error(), want+":") {
					t.Fatalf("GOMAXPROCS=%d: err = %v, want the error of %s", procs, err, want)
				}
			}
		}
	}
}
