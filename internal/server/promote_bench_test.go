package server

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"uucs/internal/core"
	"uucs/internal/stats"
	"uucs/internal/testcase"
)

// Replica-shaped fixture sizes: one node's share of fleetbench's
// fleet-cluster workload (512 hosts over 3 nodes, 8 sync cycles of 3
// uploads each) and the testcase store every node journals at start.
const (
	replicaTestcases = 400
	replicaHosts     = 171
	replicaUploads   = 4096
	replicaRunsPer   = 3
)

// BenchmarkLoadReplicaDir measures LoadState over a directory shaped
// like the replica a fleet-cluster node's follower promotes: the
// primary's shipped journal, holding its generated testcase store,
// its hosts' registrations and their uploads of fleet-shaped runs.
// It is not gated: the gated promote fixture (benchsuite's
// FailoverPromote) holds no testcases, so it cannot show what testcase
// replay costs.
func BenchmarkLoadReplicaDir(b *testing.B) {
	dir := replicaDirFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(1)
		if err := s.LoadState(dir); err != nil {
			b.Fatal(err)
		}
		if s.TestcaseCount() != replicaTestcases || s.RunCount() != replicaUploads*replicaRunsPer {
			b.Fatalf("restored %d testcases and %d runs", s.TestcaseCount(), s.RunCount())
		}
	}
}

// replicaDirFixture writes the journal records a fresh cluster node
// ships to its follower — its testcase batch, then registrations and
// uploads in arrival order — as a replica directory's journal.
func replicaDirFixture(b *testing.B) string {
	b.Helper()
	journal, err := appendTestcaseBatch(nil, generatedTestcases(b, "fb", replicaTestcases, 1))
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewStream(2)
	ids := make([]string, replicaHosts)
	for h := range ids {
		ids[h] = fmt.Sprintf("uucs-%016x", rng.Uint64())
		snap := testSnapshot()
		snap.Hostname = fmt.Sprintf("fleet-host-%d", h)
		if journal, err = appendClientRecord(journal, ids[h], fmt.Sprintf("fleet-nonce-%d", h), &snap, 0); err != nil {
			b.Fatal(err)
		}
	}
	seqs := make([]uint64, replicaHosts)
	for u := 0; u < replicaUploads; u++ {
		h := u % replicaHosts
		seqs[h]++
		runs := fleetRuns(rng, replicaRunsPer)
		f := resultsFrame(b, ids[h], seqs[h], string(core.AppendRuns(nil, runs, false)))
		journal = append(journal, recordOf(f, runs)...)
	}
	dir := b.TempDir()
	if err := os.WriteFile(filepath.Join(dir, journalFile), journal, 0o644); err != nil {
		b.Fatal(err)
	}
	return dir
}

// fleetRuns returns n runs shaped like a fleet client's uploads: one
// exercised resource each, its level and last five values, and no load
// samples.
func fleetRuns(rng *stats.Stream, n int) []*core.Run {
	resources, tasks := testcase.Resources(), testcase.Tasks()
	runs := make([]*core.Run, n)
	for i := range runs {
		res := resources[rng.IntN(len(resources))]
		lvl := 0.05 + 5*rng.Float64()
		five := make([]float64, 5)
		for k := range five {
			five[k] = lvl * float64(k+1) / 5
		}
		term := core.Exhausted
		if rng.IntN(3) == 0 {
			term = core.Discomfort
		}
		runs[i] = &core.Run{
			TestcaseID: fmt.Sprintf("fb-%05d", rng.IntN(replicaTestcases)),
			Task:       tasks[rng.IntN(len(tasks))], UserID: rng.IntN(100000),
			Terminated: term, Offset: math.Round(1200*rng.Float64()) / 10,
			PrimaryResource: res,
			Levels:          map[testcase.Resource]float64{res: lvl},
			LastFive:        map[testcase.Resource][]float64{res: five},
			Events:          rng.IntN(500),
		}
	}
	return runs
}
