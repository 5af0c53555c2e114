// Package internetstudy simulates the paper's Internet-wide study (§4):
// a fleet of heterogeneous hosts, each running the UUCS client, with
// Poisson arrivals of testcase executions and periodic hot syncs against
// a real server over the loopback network. The paper ran this study to
// sharpen the aggregated CDF estimates, to broaden the context coverage,
// and "to measure the effect of the raw performance of the machine,
// which was not studied in our controlled study" — this package includes
// that host-speed analysis.
package internetstudy

import (
	"fmt"
	"net"
	"path/filepath"
	"sort"
	"time"

	"uucs/internal/analysis"
	"uucs/internal/apps"
	"uucs/internal/client"
	"uucs/internal/comfort"
	"uucs/internal/core"
	"uucs/internal/hostsim"
	"uucs/internal/pool"
	"uucs/internal/protocol"
	"uucs/internal/server"
	"uucs/internal/stats"
	"uucs/internal/testcase"
)

// Config parameterizes a fleet simulation.
type Config struct {
	// Hosts is the number of participating machines (the paper had
	// "about 100 users").
	Hosts int
	// RunsPerHost is how many testcase executions each host performs.
	RunsPerHost int
	// TestcaseCount is the server's testcase population (the paper had
	// over 2000).
	TestcaseCount int
	// SyncEvery makes each host hot sync after this many runs.
	SyncEvery int
	// MeanGap is the mean time between testcase executions on a host in
	// seconds of simulated wall-clock (Poisson arrivals).
	MeanGap float64
	// WorkDir hosts the per-client stores (text files, as in the paper).
	WorkDir string
	// Seed drives everything.
	Seed uint64
	// Population parameterizes the user models.
	Population comfort.PopulationParams
	// Workers bounds the number of concurrently simulated hosts; 0
	// selects GOMAXPROCS and 1 reproduces the serial path. Per-host
	// random streams are derived before the fan-out and the server's
	// responses depend only on each request's identity, so collected
	// results are bit-identical for every value.
	Workers int

	// Listen, when non-nil, opens the server's listener instead of a
	// loopback TCP socket — chaos tests plug their in-memory network in
	// here. The listener's Addr().String() becomes the fleet's server
	// address.
	Listen func(addr string) (net.Listener, error)
	// Dial, when non-nil, opens host hostID's connections — chaos tests
	// wrap each host's transport with its own deterministic fault
	// injector here.
	Dial func(hostID int, addr string) (net.Conn, error)
	// IOTimeout bounds each client protocol message (zero: none).
	IOTimeout time.Duration
	// IdleTimeout reaps silent server-side connections (zero: never).
	IdleTimeout time.Duration
	// Retry overrides the clients' backoff policy when non-zero.
	Retry client.Backoff
	// Sleep, when non-nil, replaces time.Sleep for client backoff —
	// chaos tests inject a virtual clock so retries cost no wall time.
	Sleep func(d time.Duration)

	// StateDir, when non-empty, attaches a durable state directory to
	// the server: every accepted op is journaled (and fsynced, group
	// committed) before its ack, exactly as a production deployment
	// would run.
	StateDir string
	// JournalBatch forwards to the server's group-commit writer
	// (meaningful only with StateDir; zero picks the server default).
	JournalBatch int
}

// DefaultConfig mirrors the paper's scale. TestcaseCount is kept to a
// few hundred so the default run stays fast; raise it to 2000+ for the
// full population.
func DefaultConfig(workDir string) Config {
	return Config{
		Hosts:         100,
		RunsPerHost:   12,
		TestcaseCount: 400,
		SyncEvery:     4,
		MeanGap:       1800,
		WorkDir:       workDir,
		Seed:          2004,
		Population:    comfort.DefaultPopulation(),
	}
}

// Host describes one fleet member.
type Host struct {
	// ID indexes the host; runs carry it as the user id.
	ID int
	// Machine is the host's hardware.
	Machine hostsim.Config
	// User is the person behind it.
	User *comfort.User
	// ClientID is the server-assigned identifier.
	ClientID string
}

// Results holds everything the fleet produced.
type Results struct {
	Config Config
	Hosts  []*Host
	// Runs is every uploaded run record (from the server's store).
	Runs []*core.Run
	DB   *analysis.DB
}

// Run simulates the fleet: starts a server, populates its testcase
// store, runs every host's client lifecycle (register, sync, execute
// with Poisson arrivals, sync), and collects the uploaded results.
func Run(cfg Config) (*Results, error) {
	if cfg.Hosts <= 0 || cfg.RunsPerHost <= 0 {
		return nil, fmt.Errorf("internetstudy: need positive hosts and runs per host")
	}
	if cfg.WorkDir == "" {
		return nil, fmt.Errorf("internetstudy: need a work directory for client stores")
	}
	if cfg.SyncEvery <= 0 {
		cfg.SyncEvery = 4
	}
	rng := stats.NewStream(cfg.Seed)

	// Server with the testcase population.
	srv := server.New(rng.Uint64())
	if cfg.StateDir != "" {
		srv.JournalBatch = cfg.JournalBatch
		if err := srv.OpenState(cfg.StateDir); err != nil {
			return nil, err
		}
	}
	gen := testcase.DefaultGeneratorConfig()
	gen.Count = cfg.TestcaseCount
	tcs, err := testcase.Generate("inet", gen, rng.Fork())
	if err != nil {
		return nil, err
	}
	if err := srv.AddTestcases(tcs...); err != nil {
		return nil, err
	}
	srv.IdleTimeout = cfg.IdleTimeout
	var addr string
	if cfg.Listen != nil {
		ln, err := cfg.Listen("uucs-server")
		if err != nil {
			return nil, err
		}
		go func() { _ = srv.Serve(ln) }()
		addr = ln.Addr().String()
	} else {
		var err error
		addr, err = srv.ListenAndServe("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
	}
	defer srv.Close()

	users, err := comfort.SamplePopulation(cfg.Hosts, cfg.Population, rng.Uint64())
	if err != nil {
		return nil, err
	}

	// Derive every host's machine and random stream serially, in host
	// order, so the fan-out below cannot perturb the draw sequence.
	res := &Results{Config: cfg}
	hosts := make([]*Host, cfg.Hosts)
	hostRngs := make([]*stats.Stream, cfg.Hosts)
	for i := 0; i < cfg.Hosts; i++ {
		hosts[i] = &Host{ID: i, Machine: sampleMachine(rng.Fork()), User: users[i]}
		hostRngs[i] = rng.Fork()
	}
	// One Scratch per worker: every host the worker serves reuses the
	// same run buffers through its client, with bit-identical results.
	err = pool.RunScratch(cfg.Workers, cfg.Hosts, core.NewScratch, func(i int, scratch *core.Scratch) error {
		if err := runHost(cfg, addr, hosts[i], hostRngs[i], scratch); err != nil {
			return fmt.Errorf("internetstudy: host %d: %w", i, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Hosts = hosts
	// Uploads from concurrent hosts interleave at the server; each
	// host's own batches stay in execution order, so a stable sort by
	// host restores the serial collection order exactly.
	runs := srv.Results()
	sort.SliceStable(runs, func(i, j int) bool { return runs[i].UserID < runs[j].UserID })
	res.Runs = runs
	res.DB = analysis.NewDB(res.Runs)
	return res, nil
}

// sampleMachine draws a heterogeneous host configuration — the spread of
// desktop hardware an open Internet study would see around 2004.
func sampleMachine(s *stats.Stream) hostsim.Config {
	memChoices := []float64{256, 384, 512, 768, 1024}
	mem := memChoices[s.IntN(len(memChoices))]
	return hostsim.Config{
		Name:       fmt.Sprintf("host-%08x", uint32(s.Uint64())),
		CPUGHz:     s.Range(0.8, 3.2),
		MemMB:      mem,
		OSBaseMB:   s.Range(90, 140),
		DiskSeekMs: s.Range(6, 14),
		DiskMBps:   s.Range(20, 60),
		PageKB:     4,
	}
}

// taskWeights is the fleet's foreground-task mix: mostly office work and
// browsing, with a gaming minority.
var taskWeights = []struct {
	task testcase.Task
	w    float64
}{
	{testcase.Word, 0.30},
	{testcase.Powerpoint, 0.15},
	{testcase.IE, 0.40},
	{testcase.Quake, 0.15},
}

func sampleTask(s *stats.Stream) testcase.Task {
	u := s.Float64()
	acc := 0.0
	for _, tw := range taskWeights {
		acc += tw.w
		if u < acc {
			return tw.task
		}
	}
	return taskWeights[len(taskWeights)-1].task
}

// runHost runs one host's client lifecycle. scratch is the worker-owned
// reusable run state shared by all hosts this worker serves.
func runHost(cfg Config, addr string, host *Host, rng *stats.Stream, scratch *core.Scratch) error {
	store, err := client.OpenStore(filepath.Join(cfg.WorkDir, fmt.Sprintf("host-%03d", host.ID)))
	if err != nil {
		return err
	}
	engine := &core.Engine{Machine: host.Machine, Noise: hostsim.DefaultNoise(), MonitorRate: 0}
	snap := protocol.Snapshot{
		Hostname: host.Machine.Name,
		OS:       "winxp",
		CPUGHz:   host.Machine.CPUGHz,
		MemMB:    host.Machine.MemMB,
		DiskGB:   80,
	}
	cl, err := client.New(store, snap, engine, rng.Uint64())
	if err != nil {
		return err
	}
	cl.Scratch = scratch
	if cfg.Dial != nil {
		hostID := host.ID
		cl.Dialer = func(addr string) (net.Conn, error) { return cfg.Dial(hostID, addr) }
	}
	if cfg.IOTimeout > 0 {
		cl.Timeout = cfg.IOTimeout
	}
	if cfg.Retry != (client.Backoff{}) {
		cl.Retry = cfg.Retry
	}
	if cfg.Sleep != nil {
		cl.Sleep = cfg.Sleep
	}
	if err := cl.Register(addr); err != nil {
		return err
	}
	host.ClientID = cl.ID()
	if _, err := cl.HotSync(addr); err != nil {
		return err
	}
	// Poisson testcase executions; the simulated wall clock only paces
	// the arrival process, so we don't sleep.
	clock := 0.0
	for r := 0; r < cfg.RunsPerHost; r++ {
		clock += cl.NextArrival(cfg.MeanGap)
		tc, err := cl.ChooseTestcase()
		if err != nil {
			return err
		}
		task := sampleTask(rng)
		app, err := apps.New(task)
		if err != nil {
			return err
		}
		// The user model's population index equals the host ID, so run
		// records are keyed by host automatically.
		if _, err := cl.ExecuteRun(tc, app, host.User); err != nil {
			return err
		}
		if (r+1)%cfg.SyncEvery == 0 {
			if _, err := cl.HotSync(addr); err != nil {
				return err
			}
		}
	}
	// Final sync flushes remaining results.
	_, err = cl.HotSync(addr)
	return err
}
