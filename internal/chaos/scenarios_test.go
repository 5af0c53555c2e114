// The chaos scenario suite: end-to-end fleet simulations over the
// in-memory network with deterministic fault injection, asserting the
// invariants the robustness layer owes the study:
//
//   - no run is lost and no run is double-counted,
//   - sync converges despite faults,
//   - the server's final dataset is bit-identical to a fault-free run,
//   - the same seed replays the same fault schedule and dataset.
package chaos_test

import (
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"uucs/internal/apps"
	"uucs/internal/chaos"
	"uucs/internal/client"
	"uucs/internal/comfort"
	"uucs/internal/core"
	"uucs/internal/internetstudy"
	"uucs/internal/protocol"
	"uucs/internal/server"
	"uucs/internal/stats"
	"uucs/internal/testcase"
)

// fingerprint canonically encodes a run set; two fingerprints are equal
// iff the datasets are bit-identical.
func fingerprint(t *testing.T, runs []*core.Run) string {
	t.Helper()
	var b strings.Builder
	if err := core.EncodeRuns(&b, runs, true); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

const (
	fleetSeed  = 1977
	fleetHosts = 6
	fleetRuns  = 6
)

// fleetResult is what one chaos fleet run produced.
type fleetResult struct {
	fp     string   // canonical dataset encoding
	n      int      // collected run count
	events []string // per-host fault logs, host-prefixed
	sleeps int      // backoff waits (virtual)
}

// runFleet drives the full internetstudy fleet over the chaos network,
// one injector per host, retries under a virtual clock. Optional
// mutators adjust the config before the run (e.g. to attach a durable
// state directory).
func runFleet(t *testing.T, profile chaos.Profile, script map[int][]chaos.ScriptFault, reorder int, mut ...func(*internetstudy.Config)) fleetResult {
	t.Helper()
	nw := chaos.NewNetwork()
	if reorder > 1 {
		nw.SetReorderWindow(reorder)
	}
	clock := chaos.NewClock()
	cfg := internetstudy.DefaultConfig(t.TempDir())
	cfg.Hosts = fleetHosts
	cfg.RunsPerHost = fleetRuns
	cfg.TestcaseCount = 60
	cfg.SyncEvery = 2
	cfg.Seed = fleetSeed
	cfg.Workers = 2
	cfg.Listen = nw.Listen
	cfg.IOTimeout = 5 * time.Second
	cfg.IdleTimeout = 5 * time.Second
	// Generous attempt budget: MaxFaults bounds the chaos per host, so
	// even if every fault lands on one operation the retries outlast it.
	cfg.Retry = client.Backoff{Base: time.Millisecond, Max: 8 * time.Millisecond, Attempts: 10}
	cfg.Sleep = clock.Sleep
	injectors := make([]*chaos.Injector, cfg.Hosts)
	for i := range injectors {
		injectors[i] = chaos.NewInjector(fleetSeed+uint64(i)*1000003, profile).Scripted(script[i]...)
	}
	cfg.Dial = func(hostID int, addr string) (net.Conn, error) {
		return injectors[hostID].WrapDial(nw.Dial)(addr)
	}
	for _, m := range mut {
		m(&cfg)
	}
	res, err := internetstudy.Run(cfg)
	if err != nil {
		t.Fatalf("fleet failed: %v", err)
	}
	out := fleetResult{fp: fingerprint(t, res.Runs), n: len(res.Runs), sleeps: clock.Sleeps()}
	for i, in := range injectors {
		for _, e := range in.Events() {
			out.events = append(out.events, fmt.Sprintf("host%d %s", i, e))
		}
	}
	return out
}

// TestFleetScenarios runs the scenario table: each fault mix must leave
// the server's final dataset bit-identical to the fault-free baseline,
// with every run counted exactly once.
func TestFleetScenarios(t *testing.T) {
	baseline := runFleet(t, chaos.Profile{}, nil, 0)
	if baseline.n != fleetHosts*fleetRuns {
		t.Fatalf("baseline collected %d runs, want %d", baseline.n, fleetHosts*fleetRuns)
	}
	if len(baseline.events) != 0 {
		t.Fatalf("baseline injected faults: %v", baseline.events)
	}

	// Per-host client op order: register (dial/write/read #1), first sync
	// (#2, download only — nothing pending yet), then per sync: download
	// plus an upload with an ack read. read#4 is therefore the first
	// upload's ack — dropping it loses an ack for an applied batch, the
	// classic double-count trap.
	scenarios := []struct {
		name    string
		profile chaos.Profile
		script  map[int][]chaos.ScriptFault
		reorder int
	}{
		{name: "connection-drops", profile: chaos.Profile{Drop: 0.06, MaxFaults: 6}},
		{name: "partial-writes", profile: chaos.Profile{PartialWrite: 0.10, MaxFaults: 6}},
		{name: "corrupted-bytes", profile: chaos.Profile{Corrupt: 0.10, MaxFaults: 6}},
		{name: "dial-failures", profile: chaos.Profile{DialFail: 0.15, MaxFaults: 6}},
		{name: "reordered-dials", reorder: 3},
		{name: "mixed", profile: chaos.Profile{DialFail: 0.06, Drop: 0.04, PartialWrite: 0.04, Corrupt: 0.04, MaxFaults: 6}, reorder: 2},
		{name: "scripted-ack-loss", script: map[int][]chaos.ScriptFault{
			1: {{Op: "read", N: 4, Kind: chaos.KindDrop}},
			4: {{Op: "read", N: 4, Kind: chaos.KindDrop}},
		}},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			got := runFleet(t, sc.profile, sc.script, sc.reorder)
			injecting := sc.profile != (chaos.Profile{}) || len(sc.script) > 0
			if injecting && len(got.events) == 0 {
				t.Fatal("scenario injected no faults; it proves nothing")
			}
			if got.n != baseline.n {
				t.Errorf("collected %d runs, want %d (faults: %v)", got.n, baseline.n, got.events)
			}
			if got.fp != baseline.fp {
				t.Errorf("dataset diverged from fault-free baseline after faults: %v", got.events)
			}
			if injecting && got.sleeps == 0 {
				t.Error("faults were injected but no retry ever backed off")
			}
		})
	}
}

// TestGroupCommitFleetBitIdentical runs the fleet against a journaling
// server — group commit enabled, under the mixed fault profile — and
// against the fsync-per-op degenerate case. Both datasets must be
// bit-identical to the in-memory fault-free baseline: the commit
// batching is a throughput lever, never a semantic one.
func TestGroupCommitFleetBitIdentical(t *testing.T) {
	baseline := runFleet(t, chaos.Profile{}, nil, 0)
	mixed := chaos.Profile{DialFail: 0.06, Drop: 0.04, PartialWrite: 0.04, Corrupt: 0.04, MaxFaults: 6}
	variants := []struct {
		name string
		mut  func(*internetstudy.Config)
	}{
		{"group-commit", func(cfg *internetstudy.Config) {
			cfg.StateDir = t.TempDir()
		}},
		{"fsync-per-op", func(cfg *internetstudy.Config) {
			cfg.StateDir = t.TempDir()
			cfg.JournalBatch = 1
		}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			got := runFleet(t, mixed, nil, 2, v.mut)
			if len(got.events) == 0 {
				t.Fatal("scenario injected no faults; it proves nothing")
			}
			if got.n != baseline.n {
				t.Errorf("collected %d runs, want %d (faults: %v)", got.n, baseline.n, got.events)
			}
			if got.fp != baseline.fp {
				t.Errorf("durable dataset diverged from in-memory fault-free baseline: %v", got.events)
			}
		})
	}
}

// TestFleetDeterminism reruns the mixed scenario: the same seed must
// replay the identical fault schedule and produce the identical dataset.
func TestFleetDeterminism(t *testing.T) {
	profile := chaos.Profile{DialFail: 0.06, Drop: 0.04, PartialWrite: 0.04, Corrupt: 0.04, MaxFaults: 6}
	a := runFleet(t, profile, nil, 2)
	b := runFleet(t, profile, nil, 2)
	if !reflect.DeepEqual(a.events, b.events) {
		t.Errorf("fault schedules diverged:\n%v\n%v", a.events, b.events)
	}
	if a.fp != b.fp {
		t.Error("datasets diverged between identical seeded runs")
	}
	if len(a.events) == 0 {
		t.Fatal("determinism test injected no faults; it proves nothing")
	}
}

// TestServerCrashRestartScenario kills the server (no graceful save)
// between fleet phases and restarts it from its state directory on the
// same address. The final dataset must be bit-identical to a run against
// a server that never crashed.
func TestServerCrashRestartScenario(t *testing.T) {
	tcs, err := testcase.Generate("crash", testcase.GeneratorConfig{
		Count: 40, Rate: 1, Duration: 20,
		BlankFraction: 0.1, QueueFraction: 0.4, MaxCPU: 10, MaxDisk: 7,
	}, stats.NewStream(12))
	if err != nil {
		t.Fatal(err)
	}
	users, err := comfort.SamplePopulation(3, comfort.DefaultPopulation(), 7)
	if err != nil {
		t.Fatal(err)
	}
	app, err := apps.New(testcase.Word)
	if err != nil {
		t.Fatal(err)
	}

	run := func(withCrashes bool) string {
		nw := chaos.NewNetwork()
		clock := chaos.NewClock()
		stateDir := t.TempDir()
		const addr = "uucs-server"
		var srv *server.Server
		start := func() {
			srv = server.New(99)
			if err := srv.OpenState(stateDir); err != nil {
				t.Fatal(err)
			}
			ln, err := nw.Listen(addr)
			if err != nil {
				t.Fatal(err)
			}
			go srv.Serve(ln)
		}
		start()
		if err := srv.AddTestcases(tcs...); err != nil {
			t.Fatal(err)
		}
		crash := func() {
			if !withCrashes {
				return
			}
			// No SaveState: the journal alone must carry the state over.
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			start()
		}

		clients := make([]*client.Client, 3)
		for i := range clients {
			st, err := client.OpenStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			snap := protocol.Snapshot{
				Hostname: fmt.Sprintf("crash-host-%d", i), OS: "winxp",
				CPUGHz: 2, MemMB: 512, DiskGB: 80,
			}
			cl, err := client.New(st, snap, core.NewEngine(), 1000+uint64(i))
			if err != nil {
				t.Fatal(err)
			}
			cl.Dialer = nw.Dial
			cl.Retry = client.Backoff{Base: time.Millisecond, Max: 4 * time.Millisecond, Attempts: 6}
			cl.Sleep = clock.Sleep
			clients[i] = cl
		}

		// Phase A: everyone registers and takes a first sample.
		for _, cl := range clients {
			if err := cl.Register(addr); err != nil {
				t.Fatal(err)
			}
			if _, err := cl.HotSync(addr); err != nil {
				t.Fatal(err)
			}
		}
		crash()
		// Phase B: two runs each, synced to the restarted server.
		phase := func() {
			for i, cl := range clients {
				for r := 0; r < 2; r++ {
					tc, err := cl.ChooseTestcase()
					if err != nil {
						t.Fatal(err)
					}
					if _, err := cl.ExecuteRun(tc, app, users[i]); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := cl.HotSync(addr); err != nil {
					t.Fatal(err)
				}
			}
		}
		phase()
		if withCrashes {
			// Compact, then crash again: the restart below restores from
			// the snapshot plus an empty journal.
			if err := srv.SaveState(stateDir); err != nil {
				t.Fatal(err)
			}
		}
		crash()
		// Phase C: two more runs each, final sync.
		phase()

		runs := srv.Results()
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if len(runs) != 3*4 {
			t.Fatalf("collected %d runs, want 12", len(runs))
		}
		return fingerprint(t, runs)
	}

	base := run(false)
	crashy := run(true)
	if base != crashy {
		t.Error("dataset after crash/restart cycles differs from an always-up server")
	}
}

// TestStallsTripDeadlines injects stalls longer than the client's
// per-message I/O timeout: the deadline must fire and the retry must
// recover, on both the write and the read path.
func TestStallsTripDeadlines(t *testing.T) {
	nw := chaos.NewNetwork()
	srv := server.New(5)
	tcs, err := testcase.Generate("stall", testcase.GeneratorConfig{
		Count: 10, Rate: 1, Duration: 20,
		BlankFraction: 0.1, QueueFraction: 0.4, MaxCPU: 10, MaxDisk: 7,
	}, stats.NewStream(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddTestcases(tcs...); err != nil {
		t.Fatal(err)
	}
	ln, err := nw.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	// write#1 stalls the registration send; read#2 stalls the first
	// sync's response (read#1 is the registration response on attempt 2).
	in := chaos.NewInjector(1, chaos.Profile{StallFor: 120 * time.Millisecond}).Scripted(
		chaos.ScriptFault{Op: "write", N: 1, Kind: chaos.KindStall},
		chaos.ScriptFault{Op: "read", N: 2, Kind: chaos.KindStall},
	)
	clock := chaos.NewClock()
	st, err := client.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	snap := protocol.Snapshot{Hostname: "stall-host", OS: "winxp", CPUGHz: 2, MemMB: 512, DiskGB: 80}
	cl, err := client.New(st, snap, core.NewEngine(), 9)
	if err != nil {
		t.Fatal(err)
	}
	cl.Dialer = in.WrapDial(nw.Dial)
	cl.Timeout = 25 * time.Millisecond
	cl.Retry = client.Backoff{Base: time.Millisecond, Max: 4 * time.Millisecond, Attempts: 5}
	cl.Sleep = clock.Sleep

	if err := cl.Register("srv"); err != nil {
		t.Fatalf("register did not survive a stalled write: %v", err)
	}
	if _, err := cl.HotSync("srv"); err != nil {
		t.Fatalf("sync did not survive a stalled read: %v", err)
	}
	want := []string{"write#1 stall", "read#2 stall"}
	if !reflect.DeepEqual(in.Events(), want) {
		t.Errorf("events = %v, want %v", in.Events(), want)
	}
	if clock.Sleeps() != 2 {
		t.Errorf("backoff sleeps = %d, want 2 (one per tripped deadline)", clock.Sleeps())
	}
}
