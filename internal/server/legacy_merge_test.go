package server_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"uucs/internal/cluster"
	"uucs/internal/protocol"
	"uucs/internal/server"
)

// copyDir copies a state directory's files into a fresh directory.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestLegacyDifferentialMerge merges one history written as frames and
// the same history written in the legacy JSON format: alone, next to a
// copy of itself (the aggregate and every batch duplicated), and next
// to its counterpart. The merged bytes and MergeStats must match the
// legacy merge's exactly, with the snapshot aggregate whole and cut
// into several frames.
func TestLegacyDifferentialMerge(t *testing.T) {
	for _, chunk := range []int{0, 700} {
		t.Run(fmt.Sprintf("chunk=%d", chunk), func(t *testing.T) {
			newDir, oldDir := t.TempDir(), t.TempDir()
			server.WriteBothWays(t, newDir, oldDir, chunk)
			merge := func(dirs ...string) (string, cluster.MergeStats) {
				var b strings.Builder
				st, err := cluster.MergeDirs(&b, dirs)
				if err != nil {
					t.Fatal(err)
				}
				return b.String(), st
			}
			for _, layout := range []struct {
				name     string
				new, old []string
			}{
				{"alone", []string{newDir}, []string{oldDir}},
				{"duplicated", []string{newDir, copyDir(t, newDir)}, []string{oldDir, copyDir(t, oldDir)}},
			} {
				got, gotSt := merge(layout.new...)
				want, wantSt := merge(layout.old...)
				if got != want {
					t.Errorf("%s: framed merge bytes differ from the legacy merge", layout.name)
				}
				if gotSt != wantSt {
					t.Errorf("%s: framed merge stats %+v, legacy %+v", layout.name, gotSt, wantSt)
				}
				if wantSt.Aggregates != 1 || wantSt.Runs == 0 {
					t.Errorf("%s: legacy merge kept %d aggregates and %d runs; the fixture is vacuous", layout.name, wantSt.Aggregates, wantSt.Runs)
				}
			}
			if chunk == 0 {
				// A single-frame aggregate has the legacy line's identity,
				// so the two formats deduplicate against each other.
				mixed, mixedSt := merge(newDir, oldDir)
				want, wantSt := merge(oldDir, copyDir(t, oldDir))
				if mixed != want || mixedSt != wantSt {
					t.Errorf("framed + legacy merge: stats %+v, want %+v (bytes equal: %v)", mixedSt, wantSt, mixed == want)
				}
			}
		})
	}
}

// stateBytes returns the contents of dir's state files by name.
func stateBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files, err := server.StateFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for _, path := range files {
		b, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(path)] = b
	}
	return out
}

// TestOpenStateUpgradesLegacyDir opens each legacy directory fixture
// and checks the upgrade: afterwards every state file holds only
// records in the form this build writes, and each file it rewrote opens
// with this build's header; the directory reloads to the state, and
// merges to the bytes and stats, of an untouched copy; a second open
// rewrites no file; and a copy upgraded only up to each file in replay
// order — a crash between files — restores the same state.
func TestOpenStateUpgradesLegacyDir(t *testing.T) {
	dirs := server.LegacyDirs(t)
	names := make([]string, 0, len(dirs))
	for name := range dirs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		dir := dirs[name]
		t.Run(name, func(t *testing.T) {
			untouched := copyDir(t, dir)
			load := func(dir string) string {
				s := server.New(1)
				if err := s.LoadState(dir); err != nil {
					t.Fatal(err)
				}
				return server.RichFingerprint(t, s)
			}
			merge := func(dir string) (string, cluster.MergeStats) {
				var b strings.Builder
				st, err := cluster.MergeDirs(&b, []string{dir})
				if err != nil {
					t.Fatal(err)
				}
				return b.String(), st
			}
			open := func() {
				s := server.New(1)
				if err := s.OpenState(dir); err != nil {
					t.Fatal(err)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
			want := load(untouched)
			wantMerge, wantSt := merge(untouched)
			if wantSt.Runs == 0 {
				t.Fatal("the fixture merges to no runs")
			}
			before := stateBytes(t, dir)

			open()
			upgraded := stateBytes(t, dir)
			changed := 0
			for base, b := range upgraded {
				types := server.Format6Records(t, filepath.Join(dir, base))
				if !bytes.Equal(b, before[base]) {
					changed++
					if len(types) == 0 || types[0] != protocol.TypeJournalMeta {
						t.Errorf("the rewritten %s opens with %v, not a header", base, types)
					}
				}
			}
			if changed == 0 {
				t.Fatal("opening the legacy directory rewrote no file")
			}
			if load(dir) != want {
				t.Error("the upgraded directory restores different state")
			}
			if got, st := merge(dir); got != wantMerge || st != wantSt {
				t.Errorf("the upgraded directory merges differently: stats %+v, want %+v (bytes equal: %v)", st, wantSt, got == wantMerge)
			}
			infos := make(map[string]os.FileInfo)
			for base := range upgraded {
				fi, err := os.Stat(filepath.Join(dir, base))
				if err != nil {
					t.Fatal(err)
				}
				infos[base] = fi
			}
			open()
			for base, b := range stateBytes(t, dir) {
				fi, err := os.Stat(filepath.Join(dir, base))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(b, upgraded[base]) || !os.SameFile(fi, infos[base]) {
					t.Errorf("a second open rewrote %s", base)
				}
			}

			files, err := server.StateFiles(untouched)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k <= len(files); k++ {
				partial := copyDir(t, untouched)
				for i, path := range files[:k] {
					path = filepath.Join(partial, filepath.Base(path))
					if _, err := os.Stat(path); err == nil {
						server.UpgradeFile(t, path, i == len(files)-1)
					}
				}
				if load(partial) != want {
					t.Errorf("upgraded through file %d of %d: different state", k, len(files))
				}
			}
		})
	}
}

// TestLegacyAggregateDedupsWithItsBinaryCopy upgrades a legacy JSON
// aggregate larger than one record and merges it beside the snapshot
// SaveState writes of the runs it restores, scanning either directory
// first: the two copies are cut alike under one hash, so the merge
// counts the aggregate once and every run once.
func TestLegacyAggregateDedupsWithItsBinaryCopy(t *testing.T) {
	server.LowerRecordChunkBytes(t, 300)
	legacy := server.LegacyAggregateDir(t, 4)
	s := server.New(1)
	if err := s.OpenState(legacy); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	saved := t.TempDir()
	restored := server.New(1)
	if err := restored.LoadState(legacy); err != nil {
		t.Fatal(err)
	}
	if err := restored.SaveState(saved); err != nil {
		t.Fatal(err)
	}
	chunks := 0
	for _, ty := range server.Format6Records(t, filepath.Join(saved, "snapshot.txt")) {
		if ty == protocol.TypeResults {
			chunks++
		}
	}
	if chunks < 2 {
		t.Fatalf("the snapshot aggregate is in %d record(s); want several", chunks)
	}
	var want strings.Builder
	if _, err := cluster.MergeDirs(&want, []string{saved}); err != nil {
		t.Fatal(err)
	}
	// One worker scans the directories in the order given.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, dirs := range [][]string{{legacy, saved}, {saved, legacy}} {
		var b strings.Builder
		st, err := cluster.MergeDirs(&b, dirs)
		if err != nil {
			t.Fatal(err)
		}
		if st.Aggregates != 1 || st.DupAggregates != 1 || st.Runs != restored.RunCount() || b.String() != want.String() {
			t.Errorf("merge of %v: %d aggregates, %d duplicate, %d runs; want 1, 1, %d (bytes equal: %v)",
				dirs, st.Aggregates, st.DupAggregates, st.Runs, restored.RunCount(), b.String() == want.String())
		}
	}
}

// TestLegacyUnsequencedUploadDedups merges an unsequenced upload a
// format-3 build journaled as text beside the same upload this build
// journaled: converted, the legacy record is the binary one, so the
// merge keys the two alike and counts the upload once.
func TestLegacyUnsequencedUploadDedups(t *testing.T) {
	legacy, current := server.UnsequencedUploadDirs(t)
	var b strings.Builder
	st, err := cluster.MergeDirs(&b, []string{legacy, current})
	if err != nil {
		t.Fatal(err)
	}
	if st.Aggregates != 1 || st.DupAggregates != 1 || st.Runs != 2 {
		t.Errorf("merge: %d unsequenced payloads, %d duplicate, %d runs; want 1, 1, 2", st.Aggregates, st.DupAggregates, st.Runs)
	}
}
