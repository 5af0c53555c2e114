package loadgen

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"uucs/internal/chaos"
	"uucs/internal/cluster"
)

// startCluster starts an in-process N-node cluster and points the
// fleet at its router, with the node killer armed when cfg.KillNode is
// set. Its finish step is the cluster-grade contract: after shutdown,
// the deterministic merge of every node and replica journal must hold
// every acked batch exactly once.
func startCluster(cfg Config, acked *atomic.Uint64) (*target, error) {
	t := &target{dial: dialTCP}
	var tr cluster.Transport = cluster.TCPTransport{}
	if cfg.Net == "mem" {
		nw := chaos.NewNetwork()
		tr, t.dial = cluster.ChaosTransport{Net: nw}, nw.Dial
	}
	cl, err := cluster.Start(cluster.Config{
		Nodes: cfg.Nodes, Seed: cfg.Seed, StateRoot: cfg.StateDir,
		Transport:           tr,
		JournalBatch:        cfg.JournalBatch,
		JournalSyncCost:     cfg.FsyncCost,
		JournalSegmentBytes: cfg.JournalSegmentBytes,
	})
	if err != nil {
		return nil, err
	}
	t.addr = cl.Addr()
	stopKiller := startKiller(cfg, cl, acked)
	t.finish = func(rep *Report) error {
		if err := stopKiller(); rep == nil || err != nil {
			cl.Close()
			return err
		}
		rep.Telemetry = cl.Telemetry()
		rep.Failovers = cl.Router().Stats().Failovers
		if err := cl.Close(); err != nil {
			return fmt.Errorf("loadgen: cluster shutdown: %w", err)
		}
		// The merge's run count is all the check needs, so its output
		// goes nowhere and no run is kept.
		st, err := cluster.MergeTree(io.Discard, cfg.StateDir)
		if err != nil {
			return fmt.Errorf("loadgen: merge: %w", err)
		}
		rep.Merge = &st
		rep.check(int64(st.Runs), cfg.RunsPerBatch)
		return nil
	}
	return t, nil
}

// startKiller arms the node killer: once the fleet has acked
// cfg.KillAfterBatches batches (default half of cfg.Batches), it
// crashes cfg.KillNode SIGKILL-equivalently and lets the router's
// failover take over. The returned stop disarms it and reports an
// error if the node was never killed or the crash failed.
func startKiller(cfg Config, cl *cluster.Cluster, acked *atomic.Uint64) (stop func() error) {
	if cfg.KillNode == "" {
		return func() error { return nil }
	}
	after := uint64(cfg.KillAfterBatches)
	if after == 0 {
		after = uint64(cfg.Batches) / 2
	}
	done := make(chan error, 1)
	quit := make(chan struct{})
	go func() {
		for acked.Load() < after {
			select {
			case <-quit:
				done <- fmt.Errorf("loadgen: run ended before %d batches; node %s never killed", after, cfg.KillNode)
				return
			case <-time.After(time.Millisecond):
			}
		}
		done <- cl.CrashNode(cfg.KillNode)
	}()
	return func() error {
		close(quit)
		return <-done
	}
}
