package main

import (
	"testing"
	"time"
)

// tinySizes shrink every phase so each workload runs in about a second.
// The controlled study keeps the paper's 33 users: its figures must
// still equal the goldens.
var tinySizes = sizes{
	Hosts: 8, Conns: 2, RunsPerUpload: 3,
	Setups: 2, UploadsPerHost: 3, SegmentBytes: 4 << 10, Restarts: 2, Exports: 2,
	Testcases: 20, CyclesPerHost: 2, UploadsPerSync: 3, SyncWant: 4, Merges: 2,
	StudyUsers: 33, InetHosts: 200, InetRuns: 2,
}

// tinyRun runs one workload at tiny sizes: one round untraced, two
// rounds (one traced) with tracing on.
func tinyRun(t *testing.T, workload string, traced bool) result {
	t.Helper()
	r := &run{
		workload: workload, seed: 7, budget: time.Nanosecond, traced: traced,
		sz: tinySizes, repo: "..", state: t.TempDir(),
		m: make(map[string]float64), wall: make(map[string]float64), round: -1,
	}
	res, err := r.execute(workloads[workload])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: correct %v, %d of %d failed: %v", workload, res.Correct, res.Failed, res.Attempted, r.problems)
	}
	known := map[string]bool{}
	for _, spec := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		known[spec.name] = true
	}
	for name := range r.m {
		if !known[name] {
			t.Errorf("%s emits %q, which BENCHMARK.json does not declare", workload, name)
		}
	}
	want := endToEnd
	if traced {
		want = perLayer
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, want %d", workload, len(res.Metrics), len(want))
	}
	return res
}

func TestTinyWorkloadsPassTheirChecks(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			tinyRun(t, name, false)
			res := tinyRun(t, name, true)
			if res.Metrics["trace.spans"].Value == 0 {
				t.Errorf("%s: traced run recorded no spans", name)
			}
		})
	}
}
