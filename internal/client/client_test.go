package client

import (
	"strings"
	"testing"

	"uucs/internal/apps"
	"uucs/internal/comfort"
	"uucs/internal/core"
	"uucs/internal/protocol"
	"uucs/internal/server"
	"uucs/internal/stats"
	"uucs/internal/testcase"
)

func testSnap() protocol.Snapshot {
	return protocol.Snapshot{Hostname: "box", OS: "winxp", CPUGHz: 2, MemMB: 512, DiskGB: 80}
}

func newClient(t *testing.T, seed uint64) *Client {
	t.Helper()
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(st, testSnap(), core.NewEngine(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func startServer(t *testing.T, nTestcases int) (*server.Server, string) {
	t.Helper()
	s := server.New(11)
	if nTestcases > 0 {
		tcs, err := testcase.Generate("inet", testcase.GeneratorConfig{
			Count: nTestcases, Rate: 1, Duration: 20,
			BlankFraction: 0.1, QueueFraction: 0.4, MaxCPU: 10, MaxDisk: 7,
		}, stats.NewStream(3))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AddTestcases(tcs...); err != nil {
			t.Fatal(err)
		}
	}
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, addr
}

func testUser(t *testing.T) *comfort.User {
	t.Helper()
	us, err := comfort.SamplePopulation(1, comfort.DefaultPopulation(), 5)
	if err != nil {
		t.Fatal(err)
	}
	return us[0]
}

// TestNonceDistinctAcrossHostsSharingSeed: two different machines that
// happen to run with the same seed (e.g. two volunteers on the CLI's
// default -seed) must present distinct registration nonces, or the
// server's nonce dedup would merge them into one identity and the
// second host's uploads would be dropped as duplicates.
func TestNonceDistinctAcrossHostsSharingSeed(t *testing.T) {
	newWithSnap := func(snap protocol.Snapshot) *Client {
		st, err := OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(st, snap, core.NewEngine(), 1)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a := newWithSnap(testSnap())
	other := testSnap()
	other.Hostname = "other-box"
	b := newWithSnap(other)
	if a.nonce == b.nonce {
		t.Errorf("distinct hosts with the same seed derived the same nonce %q", a.nonce)
	}
	// Same host, same seed, fresh store: the derivation itself stays
	// deterministic (the simulated fleet depends on it).
	a2 := newWithSnap(testSnap())
	if a.nonce != a2.nonce {
		t.Errorf("nonce derivation not deterministic: %q vs %q", a.nonce, a2.nonce)
	}
	// And the entropy-backed path for real deployments never collides.
	r1, err := RandomNonce()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RandomNonce()
	if err != nil {
		t.Fatal(err)
	}
	if r1 == r2 || r1 == "" {
		t.Errorf("RandomNonce produced %q and %q", r1, r2)
	}
}

func TestStoreRoundTrips(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Client id.
	if id, err := st.ClientID(); err != nil || id != "" {
		t.Fatalf("fresh store id = %q, %v", id, err)
	}
	if err := st.SetClientID("uucs-1"); err != nil {
		t.Fatal(err)
	}
	if id, _ := st.ClientID(); id != "uucs-1" {
		t.Errorf("id = %q", id)
	}
	if err := st.SetClientID(""); err == nil {
		t.Error("empty id stored")
	}
	// Testcases.
	tc := testcase.New("a", 1)
	tc.Functions[testcase.CPU] = testcase.Ramp(2, 10, 1)
	tc.Shape = testcase.ShapeRamp
	if err := st.SaveTestcases([]*testcase.Testcase{tc}); err != nil {
		t.Fatal(err)
	}
	got, err := st.Testcases()
	if err != nil || len(got) != 1 || got[0].ID != "a" {
		t.Fatalf("testcases = %v, %v", got, err)
	}
	// Merge keeps existing, adds new.
	tc2 := testcase.New("b", 1)
	tc2.Functions[testcase.Disk] = testcase.Step(3, 10, 2, 1)
	tc2.Shape = testcase.ShapeStep
	added, err := st.AddTestcases([]*testcase.Testcase{tc, tc2})
	if err != nil || added != 1 {
		t.Fatalf("added = %d, %v", added, err)
	}
	got, _ = st.Testcases()
	if len(got) != 2 {
		t.Fatalf("after merge: %d", len(got))
	}
}

func TestStoreRunLifecycle(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	run := &core.Run{
		TestcaseID: "t", Task: testcase.Word, UserID: 1,
		Terminated: core.Exhausted, Offset: 120,
		Levels:   map[testcase.Resource]float64{testcase.CPU: 0},
		LastFive: map[testcase.Resource][]float64{},
	}
	if err := st.AppendRun(run); err != nil {
		t.Fatal(err)
	}
	pending, err := st.PendingRuns()
	if err != nil || len(pending) != 1 {
		t.Fatalf("pending = %d, %v", len(pending), err)
	}
	seq, err := st.SealPending()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.MarkBatchUploaded(seq); err != nil {
		t.Fatal(err)
	}
	pending, _ = st.PendingRuns()
	if len(pending) != 0 {
		t.Errorf("pending after upload = %d", len(pending))
	}
	archived, err := st.UploadedRuns()
	if err != nil || len(archived) != 1 {
		t.Errorf("archived = %d, %v", len(archived), err)
	}
}

func TestOpenStoreValidation(t *testing.T) {
	if _, err := OpenStore(""); err == nil {
		t.Error("empty dir accepted")
	}
}

func TestNewClientValidation(t *testing.T) {
	st, _ := OpenStore(t.TempDir())
	if _, err := New(nil, testSnap(), nil, 1); err == nil {
		t.Error("nil store accepted")
	}
	if _, err := New(st, protocol.Snapshot{}, nil, 1); err == nil {
		t.Error("invalid snapshot accepted")
	}
	c, err := New(st, testSnap(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.Engine == nil {
		t.Error("nil engine not defaulted")
	}
}

func TestRegisterAndHotSync(t *testing.T) {
	srv, addr := startServer(t, 60)
	c := newClient(t, 1)
	if err := c.Register(addr); err != nil {
		t.Fatal(err)
	}
	if c.ID() == "" {
		t.Fatal("no id after registration")
	}
	// Idempotent.
	id := c.ID()
	if err := c.Register(addr); err != nil || c.ID() != id {
		t.Errorf("re-registration changed id: %v %v", c.ID(), err)
	}
	// First sync: SyncBatch testcases.
	st1, err := c.HotSync(addr)
	if err != nil {
		t.Fatal(err)
	}
	if st1.NewTestcases != c.SyncBatch {
		t.Errorf("first sync brought %d testcases, want %d", st1.NewTestcases, c.SyncBatch)
	}
	// Second sync: the sample grows.
	st2, err := c.HotSync(addr)
	if err != nil {
		t.Fatal(err)
	}
	if st2.NewTestcases <= st1.NewTestcases {
		t.Errorf("sample did not grow: %d then %d", st1.NewTestcases, st2.NewTestcases)
	}
	tcs, _ := c.Store.Testcases()
	if len(tcs) != st1.NewTestcases+st2.NewTestcases {
		t.Errorf("store holds %d testcases", len(tcs))
	}
	_ = srv
}

func TestHotSyncRequiresRegistration(t *testing.T) {
	_, addr := startServer(t, 5)
	c := newClient(t, 2)
	if _, err := c.HotSync(addr); err == nil {
		t.Error("unregistered sync succeeded")
	}
}

func TestEndToEndRunUpload(t *testing.T) {
	srv, addr := startServer(t, 30)
	c := newClient(t, 3)
	if err := c.Register(addr); err != nil {
		t.Fatal(err)
	}
	if _, err := c.HotSync(addr); err != nil {
		t.Fatal(err)
	}
	tc, err := c.ChooseTestcase()
	if err != nil {
		t.Fatal(err)
	}
	app, err := apps.New(testcase.Word)
	if err != nil {
		t.Fatal(err)
	}
	run, err := c.ExecuteRun(tc, app, testUser(t))
	if err != nil {
		t.Fatal(err)
	}
	if run.TestcaseID != tc.ID {
		t.Errorf("run testcase = %s", run.TestcaseID)
	}
	st, err := c.HotSync(addr)
	if err != nil {
		t.Fatal(err)
	}
	if st.UploadedRuns != 1 {
		t.Errorf("uploaded %d runs", st.UploadedRuns)
	}
	if got := srv.Results(); len(got) != 1 || got[0].TestcaseID != tc.ID {
		t.Errorf("server results: %v", got)
	}
	// Nothing pending after upload.
	pending, _ := c.Store.PendingRuns()
	if len(pending) != 0 {
		t.Errorf("still %d pending", len(pending))
	}
}

func TestChooseTestcaseEmptyStore(t *testing.T) {
	c := newClient(t, 4)
	if _, err := c.ChooseTestcase(); err == nil {
		t.Error("empty store choice succeeded")
	}
}

func TestNextArrivalIsPoisson(t *testing.T) {
	c := newClient(t, 5)
	sum := 0.0
	n := 20000
	for i := 0; i < n; i++ {
		v := c.NextArrival(30)
		if v < 0 {
			t.Fatal("negative arrival gap")
		}
		sum += v
	}
	mean := sum / float64(n)
	if mean < 28 || mean > 32 {
		t.Errorf("mean gap = %v, want ~30", mean)
	}
}

func TestRunScript(t *testing.T) {
	_, addr := startServer(t, 0)
	_ = addr
	c := newClient(t, 6)
	suite, err := testcase.ControlledSuite(testcase.Word)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Store.SaveTestcases(suite); err != nil {
		t.Fatal(err)
	}
	app, _ := apps.New(testcase.Word)
	ids := []string{suite[0].ID, suite[1].ID}
	runs, err := c.RunScript(ids, app, testUser(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || runs[0].TestcaseID != ids[0] {
		t.Errorf("script runs: %v", runs)
	}
	if _, err := c.RunScript([]string{"nope"}, app, testUser(t)); err == nil {
		t.Error("unknown id accepted")
	}
	pending, _ := c.Store.PendingRuns()
	if len(pending) != 2 {
		t.Errorf("pending = %d", len(pending))
	}
}

func TestParseScript(t *testing.T) {
	ids := ParseScript("# comment\n\n tc-1 \ntc-2\n")
	if len(ids) != 2 || ids[0] != "tc-1" || ids[1] != "tc-2" {
		t.Errorf("ParseScript = %v", ids)
	}
	if got := ParseScript(""); len(got) != 0 {
		t.Errorf("empty script = %v", got)
	}
	if !strings.HasPrefix("tc-1", "tc") {
		t.Fatal("sanity")
	}
}

func TestClientDisconnectedOperation(t *testing.T) {
	// The paper's client "can operate disconnected from the server":
	// executions against the local store must work with no server, and a
	// failed hot sync must leave the pending results intact.
	c := newClient(t, 8)
	suite, err := testcase.ControlledSuite(testcase.Powerpoint)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Store.SaveTestcases(suite); err != nil {
		t.Fatal(err)
	}
	app, _ := apps.New(testcase.Powerpoint)
	tc, err := c.ChooseTestcase()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExecuteRun(tc, app, testUser(t)); err != nil {
		t.Fatal(err)
	}
	// Force the registered state so HotSync attempts the network.
	if err := c.Store.SetClientID("uucs-ghost"); err != nil {
		t.Fatal(err)
	}
	c2, err := New(c.Store, testSnap(), core.NewEngine(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.HotSync("127.0.0.1:1"); err == nil { // nothing listens there
		t.Fatal("sync against dead server succeeded")
	}
	pending, err := c.Store.PendingRuns()
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 {
		t.Errorf("pending results lost on failed sync: %d", len(pending))
	}
}

// TestRegisterReprobesStoredIdentity pins the restart re-probe: a
// client that comes back up with a stored identity has not negotiated a
// wire version this process life, so Register must redo the idempotent
// wire round-trip — upgrading the framing to the newest the server
// grants — while keeping the stored id authoritative. Skipping it would
// leave every restarted client speaking v2 forever.
func TestRegisterReprobesStoredIdentity(t *testing.T) {
	_, addr := startServer(t, 0)
	dir := t.TempDir()

	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := New(st, testSnap(), core.NewEngine(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Register(addr); err != nil {
		t.Fatal(err)
	}
	id := c1.ID()
	if id == "" {
		t.Fatal("first registration assigned no id")
	}
	if got := c1.WireVersion(); got != protocol.V3 {
		t.Fatalf("fresh registration negotiated v%d, want v%d", got, protocol.V3)
	}

	// Restart: a new process life over the same store. The identity is
	// stored, but negotiation state is not — the restarted client must
	// conservatively speak v2 until it re-probes.
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := New(st2, testSnap(), core.NewEngine(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if c2.ID() != id {
		t.Fatalf("restarted client lost its identity: %q vs %q", c2.ID(), id)
	}
	if got := c2.WireVersion(); got != protocol.V2 {
		t.Fatalf("pre-probe wire version v%d, want conservative v%d", got, protocol.V2)
	}
	if err := c2.Register(addr); err != nil {
		t.Fatal(err)
	}
	if c2.ID() != id {
		t.Fatalf("re-probe changed the stored id: %q vs %q", c2.ID(), id)
	}
	if got := c2.WireVersion(); got != protocol.V3 {
		t.Fatalf("post-probe wire version v%d, want upgraded v%d", got, protocol.V3)
	}

	// A second Register in the same life is a local no-op — already
	// negotiated, nothing to learn.
	if err := c2.Register(addr); err != nil {
		t.Fatal(err)
	}

	// A client pinned to v2 re-probes nothing and stays pinned.
	st3, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c3, err := New(st3, testSnap(), core.NewEngine(), 7)
	if err != nil {
		t.Fatal(err)
	}
	c3.ProtocolVersion = protocol.V2
	if err := c3.Register(addr); err != nil {
		t.Fatal(err)
	}
	if got := c3.WireVersion(); got != protocol.V2 {
		t.Fatalf("pinned client speaks v%d, want v%d", got, protocol.V2)
	}
}
