package server_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uucs/internal/cluster"
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
