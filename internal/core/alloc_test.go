package core

import (
	"reflect"
	"testing"

	"uucs/internal/hostsim"
	"uucs/internal/testcase"
)

// suiteCaseFor returns the first controlled-suite testcase for the task
// whose primary resource is r.
func suiteCaseFor(t *testing.T, task testcase.Task, r testcase.Resource) *testcase.Testcase {
	t.Helper()
	suite, err := testcase.ControlledSuite(task)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range suite {
		if tc.PrimaryResource() == r {
			return tc
		}
	}
	t.Fatalf("no %s testcase in the %s suite", r, task)
	return nil
}

// TestExecuteScratchAllocCeiling pins the warm-path allocation count of
// one run per exercised resource. The remaining allocations are the run
// record itself (the Run struct, its Levels map, LastFive and monitor
// samples) — per-run state the caller keeps. Anything above the ceiling
// means a hot-loop allocation crept back in.
func TestExecuteScratchAllocCeiling(t *testing.T) {
	const ceiling = 12
	e := NewEngine()
	user := testUser(t, 1)
	for _, r := range testcase.Resources() {
		r := r
		t.Run(string(r), func(t *testing.T) {
			tc := suiteCaseFor(t, testcase.Word, r)
			app := testApp(t, testcase.Word)
			s := NewScratch()
			// Warm the scratch: buffers reach steady-state size on the
			// first run; the ceiling applies from the second on.
			if _, err := e.ExecuteScratch(s, tc, app, user, 1); err != nil {
				t.Fatal(err)
			}
			seed := uint64(2)
			avg := testing.AllocsPerRun(10, func() {
				if _, err := e.ExecuteScratch(s, tc, app, user, seed); err != nil {
					t.Fatal(err)
				}
				seed++
			})
			if avg > ceiling {
				t.Errorf("ExecuteScratch(%s) allocates %.1f/run, ceiling %d", r, avg, ceiling)
			}
		})
	}
}

// TestExecuteWarmScratchMatchesFresh verifies the reuse machinery is
// invisible: a scratch that has executed arbitrary prior runs yields
// bit-identical records to a freshly allocated one, for every task.
func TestExecuteWarmScratchMatchesFresh(t *testing.T) {
	e := NewEngine()
	e.TraceEvents = true
	user := testUser(t, 7)
	warm := NewScratch()
	for _, task := range testcase.Tasks() {
		suite, err := testcase.ControlledSuite(task)
		if err != nil {
			t.Fatal(err)
		}
		app := testApp(t, task)
		for i, tc := range suite {
			seed := uint64(100 + i)
			got, err := e.ExecuteScratch(warm, tc, app, user, seed)
			if err != nil {
				t.Fatal(err)
			}
			want, err := e.ExecuteScratch(NewScratch(), tc, app, user, seed)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s testcase %s: warm-scratch run differs from fresh", task, tc.ID)
			}
		}
	}
}

// TestExecuteIntoMatchesScratch verifies that a Run reused across
// arbitrary testcases and tasks is bit-identical to a freshly allocated
// one — the contract the streaming study engine's fold loop depends on.
func TestExecuteIntoMatchesScratch(t *testing.T) {
	e := NewEngine()
	e.TraceEvents = true
	user := testUser(t, 7)
	warm := NewScratch()
	reused := &Run{}
	for _, task := range testcase.Tasks() {
		suite, err := testcase.ControlledSuite(task)
		if err != nil {
			t.Fatal(err)
		}
		app := testApp(t, task)
		for i, tc := range suite {
			seed := uint64(400 + i)
			if err := e.ExecuteInto(warm, reused, tc, app, user, seed); err != nil {
				t.Fatal(err)
			}
			want, err := e.ExecuteScratch(NewScratch(), tc, app, user, seed)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(reused, want) {
				t.Errorf("%s testcase %s: reused run differs from fresh", task, tc.ID)
			}
		}
	}
}

// TestExecuteIntoAllocCeiling pins the fully-reused path: warm scratch,
// reused run, no monitor replay. This is the configuration the
// million-host streaming engine runs in, where any per-run allocation
// multiplies by 10^6.
func TestExecuteIntoAllocCeiling(t *testing.T) {
	const ceiling = 1
	e := NewEngine()
	e.MonitorRate = 0
	user := testUser(t, 1)
	for _, r := range testcase.Resources() {
		r := r
		t.Run(string(r), func(t *testing.T) {
			tc := suiteCaseFor(t, testcase.Word, r)
			app := testApp(t, testcase.Word)
			s := NewScratch()
			run := &Run{}
			if err := e.ExecuteInto(s, run, tc, app, user, 1); err != nil {
				t.Fatal(err)
			}
			seed := uint64(2)
			avg := testing.AllocsPerRun(10, func() {
				if err := e.ExecuteInto(s, run, tc, app, user, seed); err != nil {
					t.Fatal(err)
				}
				seed++
			})
			if avg > ceiling {
				t.Errorf("ExecuteInto(%s) allocates %.1f/run, ceiling %d", r, avg, ceiling)
			}
		})
	}
}

// TestAppendRunsAllocCeiling pins the encoder's warm path: appending
// into a buffer that already has the room allocates nothing, with or
// without load samples. The cluster merge encodes every run this way.
func TestAppendRunsAllocCeiling(t *testing.T) {
	runs := benchRuns(3)
	runs[0].Load = []hostsim.Load{{Time: 1, CPU: 0.5, MemFrac: 0.25, DiskQ: 2}}
	for _, withLoad := range []bool{false, true} {
		buf := AppendRuns(nil, runs, withLoad)
		avg := testing.AllocsPerRun(100, func() {
			buf = AppendRuns(buf[:0], runs, withLoad)
		})
		if avg != 0 {
			t.Errorf("AppendRuns(withLoad=%v) into a warm buffer allocates %.1f/call, want 0", withLoad, avg)
		}
	}
}

// TestTranscodeRunsAllocCeiling pins the transcoder's warm path, the
// server's ingest: transcoding into a buffer that already has the room
// allocates nothing, for a 3-run upload batch with load samples and
// multi-field params and for a batch whose run count takes two bytes.
func TestTranscodeRunsAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are nondeterministic under the race detector")
	}
	small := benchRuns(3)
	small[0].Load = []hostsim.Load{{Time: 1, CPU: 0.5, MemFrac: 0.25, DiskQ: 2}}
	small[1].Params = "a b  c"
	for _, runs := range [][]*Run{small, benchRuns(200)} {
		payload := AppendRuns(nil, runs, true)
		buf, _, err := TranscodeRuns(nil, payload)
		if err != nil {
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(100, func() {
			if buf, _, err = TranscodeRuns(buf[:0], payload); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Errorf("TranscodeRuns of %d runs into a warm buffer allocates %.1f/call, want 0", len(runs), avg)
		}
	}
}

// TestParseRunsAllocCeiling pins the decoder's cost per run on a 3-run
// upload batch. ParseRuns transcodes into a fresh batch (presized to
// half the text, and grown once here) and decodes that: per run one id-params-shape string and the
// Levels and LastFive maps (header and first group each) with the
// LastFive values, and per batch the Run block and the result slice.
func TestParseRunsAllocCeiling(t *testing.T) {
	const perRun = 9
	runs := benchRuns(3)
	payload := AppendRuns(nil, runs, false)
	avg := testing.AllocsPerRun(100, func() {
		if _, err := ParseRuns(payload); err != nil {
			t.Fatal(err)
		}
	})
	if avg > perRun*float64(len(runs)) {
		t.Errorf("ParseRuns allocates %.1f per %d-run batch, ceiling %d per run", avg, len(runs), perRun)
	}
}
