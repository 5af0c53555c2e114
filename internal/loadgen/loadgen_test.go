package loadgen

import (
	"os"
	"strings"
	"testing"
	"time"
)

// TestClosedLoopBatchBudget drives a fixed batch budget over the
// in-memory transport against a journaling server and checks the
// accounting: every batch acked, none lost, none duplicated.
func TestClosedLoopBatchBudget(t *testing.T) {
	rep, err := Run(Config{
		Clients: 4, Batches: 40, RunsPerBatch: 2,
		StateDir: t.TempDir(), Net: "mem", Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Batches != 40 {
		t.Errorf("acked %d batches, want 40", rep.Batches)
	}
	if rep.Runs != 80 {
		t.Errorf("runs = %d, want 80", rep.Runs)
	}
	if !rep.Verified() {
		t.Fatal("in-process run did not verify")
	}
	if rep.Lost != 0 || rep.Duplicated != 0 {
		t.Errorf("lost=%d duplicated=%d, want 0/0", rep.Lost, rep.Duplicated)
	}
	if rep.Server.JournalFsyncs == 0 {
		t.Error("journaling server reported zero fsyncs")
	}
	if rep.LatP50 <= 0 || rep.LatMax < rep.LatP99 || rep.LatP99 < rep.LatP50 {
		t.Errorf("latency quantiles disordered: p50=%v p99=%v max=%v", rep.LatP50, rep.LatP99, rep.LatMax)
	}
}

// TestTimedWindowTCP exercises the loopback-TCP path and the timed
// budget, without a journal (the in-memory ceiling).
func TestTimedWindowTCP(t *testing.T) {
	rep, err := Run(Config{
		Clients: 2, Duration: 100 * time.Millisecond, RunsPerBatch: 1,
		Net: "tcp", Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Batches == 0 {
		t.Error("timed window acked no batches")
	}
	if rep.Lost != 0 || rep.Duplicated != 0 {
		t.Errorf("lost=%d duplicated=%d, want 0/0", rep.Lost, rep.Duplicated)
	}
	if rep.Server.JournalFsyncs != 0 {
		t.Error("journal-less server reported fsyncs")
	}
}

// TestConfigValidation pins the rejected configurations.
func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Net: "carrier-pigeon", Batches: 1}); err == nil {
		t.Error("unknown transport accepted")
	}
	if _, err := Run(Config{Net: "mem", Addr: "elsewhere:1", Batches: 1}); err == nil {
		t.Error("mem transport with external addr accepted")
	}
	if _, err := Run(Config{Net: "mem", KillNode: "n1", Batches: 1, StateDir: t.TempDir()}); err == nil {
		t.Error("kill-node without cluster mode accepted")
	}
	if _, err := Run(Config{Net: "mem", Nodes: []string{"n1"}, Batches: 1}); err == nil {
		t.Error("cluster mode without a state dir accepted")
	}
	// Rejected before any node starts: the state root stays empty.
	root := t.TempDir()
	if _, err := Run(Config{Net: "mem", Nodes: []string{"n1", "n2", "n3"}, KillNode: "n9", Batches: 400, StateDir: root}); err == nil {
		t.Error("kill-node outside the cluster's nodes accepted")
	}
	if ents, _ := os.ReadDir(root); len(ents) != 0 {
		t.Errorf("rejected config left %d entries in the state root", len(ents))
	}
	_, err := Run(Config{Net: "mem", Nodes: []string{"n1", "n2", "n3"}, KillNode: "n2", Duration: 300 * time.Millisecond, StateDir: t.TempDir()})
	if err == nil || !strings.Contains(err.Error(), "-batches") || !strings.Contains(err.Error(), "-kill-after") {
		t.Errorf("timed kill-node run without a kill threshold: err = %v, want one naming -batches and -kill-after", err)
	}
	// A kill threshold the batch budget never reaches, or reaches only
	// with the last ack, is rejected before any node starts.
	for _, after := range []int{-1, 400, 401} {
		root := t.TempDir()
		_, err := Run(Config{Net: "mem", Nodes: []string{"n1", "n2", "n3"}, KillNode: "n2", KillAfterBatches: after, Batches: 400, StateDir: root})
		if err == nil || !strings.Contains(err.Error(), "-batches") || !strings.Contains(err.Error(), "-kill-after") {
			t.Errorf("-kill-after %d of -batches 400: err = %v, want one naming -batches and -kill-after", after, err)
		}
		if ents, _ := os.ReadDir(root); len(ents) != 0 {
			t.Errorf("-kill-after %d: rejected config left %d entries in the state root", after, len(ents))
		}
	}
}

// TestClusterModeFaultFree drives the fleet through a 3-node cluster's
// router with no faults and checks the merged-dataset accounting.
func TestClusterModeFaultFree(t *testing.T) {
	rep, err := Run(Config{
		Clients: 4, Batches: 40, RunsPerBatch: 2,
		StateDir: t.TempDir(), Net: "mem", Seed: 7,
		Nodes: []string{"n1", "n2", "n3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Batches != 40 {
		t.Errorf("acked %d batches, want 40", rep.Batches)
	}
	if !rep.Verified() {
		t.Fatal("cluster run did not verify")
	}
	if rep.Lost != 0 || rep.Duplicated != 0 {
		t.Errorf("lost=%d duplicated=%d, want 0/0", rep.Lost, rep.Duplicated)
	}
	if rep.Failovers != 0 {
		t.Errorf("fault-free run recorded %d failovers", rep.Failovers)
	}
	if rep.Merge == nil || rep.Merge.Batches != 40 {
		t.Errorf("merge stats %+v, want 40 batches", rep.Merge)
	}
	if rep.Telemetry == nil || rep.Telemetry.Node != "cluster" {
		t.Error("cluster run did not aggregate cluster telemetry")
	}
}

// TestClusterModeNodeKill kills a node halfway through the batch
// budget; the fleet must ride the failover and the merged dataset must
// still hold every acked batch exactly once.
func TestClusterModeNodeKill(t *testing.T) {
	rep, err := Run(Config{
		Clients: 4, Batches: 60, RunsPerBatch: 2,
		StateDir: t.TempDir(), Net: "mem", Seed: 7,
		Nodes: []string{"n1", "n2", "n3"}, KillNode: "n2",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Batches != 60 {
		t.Errorf("acked %d batches, want 60", rep.Batches)
	}
	if rep.Lost != 0 || rep.Duplicated != 0 {
		t.Errorf("lost=%d duplicated=%d, want 0/0", rep.Lost, rep.Duplicated)
	}
}

// TestClusterCheckSeesMergedRuns reruns a one-client cluster over a
// state root that already holds 20 batches of another size. The
// resilient worker gets its client id back and accepts the dup acks of
// seqs 1..20, so the merged dataset holds the first run's batches
// where the second run's were acked, and the exactly-once check must
// say so, in the second run's batch size: 40 extra runs are 20
// duplicated batches of 2, 40 missing runs are 10 lost batches of 4.
func TestClusterCheckSeesMergedRuns(t *testing.T) {
	for _, tc := range []struct {
		name          string
		first, second int
		lost, dup     int64
	}{
		{"larger-first", 4, 2, 0, 20},
		{"smaller-first", 2, 4, 10, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Clients: 1, Batches: 20, RunsPerBatch: tc.first,
				StateDir: t.TempDir(), Net: "mem", Seed: 7,
				Nodes: []string{"n1", "n2", "n3"},
			}
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
			cfg.RunsPerBatch = tc.second
			rep, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Lost != tc.lost || rep.Duplicated != tc.dup {
				t.Errorf("lost=%d duplicated=%d, want %d/%d", rep.Lost, rep.Duplicated, tc.lost, tc.dup)
			}
		})
	}
}
