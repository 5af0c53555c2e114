// Command uucs-internet simulates the paper's Internet-wide study (§4).
//
// Two engines back it. The default is the streaming million-host
// engine: a correlated host population (hostpop), diurnal availability
// and optional crash churn, with runs folded into bounded-memory
// aggregates as they complete. The legacy engine (-pop-profile legacy)
// is the original protocol-faithful fleet — real server, loopback
// network, per-client stores — preserved for fidelity experiments and
// pinned by a golden test.
//
// Usage:
//
//	uucs-internet                                  # 100 hosts, streaming
//	uucs-internet -hosts 1000000 -runs 2           # million-host study
//	uucs-internet -hosts 10000 -churn -smoke       # CI accounting check
//	uucs-internet -converge 1000,10000,100000      # convergence curves
//	uucs-internet -pop-profile legacy              # historical fleet path
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"uucs/internal/hostpop"
	"uucs/internal/internetstudy"
	"uucs/internal/profiling"
	"uucs/internal/stats"
	"uucs/internal/testcase"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "uucs-internet:", err)
		os.Exit(1)
	}
}

// run is the whole command. It returns the error main reports, so the
// deferred profile stop has run, and the profile is complete, before
// main exits.
func run() error {
	var (
		hosts      = flag.Int("hosts", 100, "number of fleet hosts")
		runs       = flag.Int("runs", 12, "testcase executions per host")
		tcCount    = flag.Int("testcases", 400, "testcase population")
		seed       = flag.Uint64("seed", 2004, "fleet seed")
		popSeed    = flag.Uint64("pop-seed", 0, "population and run seed (0: use -seed)")
		popProfile = flag.String("pop-profile", "heien", "host population profile: heien (streaming engine) or legacy (protocol fleet)")
		churn      = flag.Bool("churn", false, "enable crash churn (hosts dying mid-testcase)")
		smoke      = flag.Bool("smoke", false, "run-accounting smoke mode: verify no run is lost or duplicated, then exit")
		converge   = flag.String("converge", "", "comma-separated fleet sizes: run the scaling/convergence experiment")
		workers    = flag.Int("workers", 0, "concurrent hosts (0 = GOMAXPROCS, 1 = serial; results are identical)")
		workdir    = flag.String("workdir", "", "legacy engine: client store directory (default: temp)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()

	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer stopProfiles()

	if *popSeed == 0 {
		*popSeed = *seed
	}

	if *popProfile == "legacy" {
		return runLegacy(*hosts, *runs, *tcCount, *seed, *workers, *workdir)
	}
	profile, err := hostpop.ByName(*popProfile)
	if err != nil {
		return err
	}

	cfg := internetstudy.DefaultStreamConfig()
	cfg.Hosts = *hosts
	cfg.RunsPerHost = *runs
	cfg.TestcaseCount = *tcCount
	cfg.Seed = *popSeed
	cfg.Profile = profile
	cfg.Workers = *workers
	if *churn {
		cfg.Churn = hostpop.DefaultChurn()
	}

	if *converge != "" {
		if err := runConvergence(cfg, *converge); err != nil {
			return err
		}
		return nil
	}

	fmt.Printf("uucs-internet: streaming %d hosts x %d runs (%s population, churn=%v, pop-seed=%d)\n",
		cfg.Hosts, cfg.RunsPerHost, profile.Name, cfg.Churn.Enabled, cfg.Seed)
	start := time.Now()
	res, err := internetstudy.RunStreaming(cfg)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	if *smoke {
		// RunStreaming verified Attempted == Folded + Blank + Crashed ==
		// Hosts*RunsPerHost; reaching here means no run was lost or
		// duplicated. Report and exit zero.
		ag := res.Agg
		fmt.Printf("smoke OK: %d attempts = %d folded + %d blank + %d crashed (%.1fs)\n",
			ag.Attempted, ag.Folded, ag.Blank, ag.Crashed, elapsed.Seconds())
		return nil
	}

	fmt.Print(res.Summary())
	fmt.Printf("wall %.1fs, heap %s\n\n", elapsed.Seconds(), heapMB())
	for _, r := range testcase.Resources() {
		a := res.Agg.ByResource[r]
		if a.N() == 0 {
			continue
		}
		fmt.Println(a.Render("Internet-study CDF for "+string(r), 60, 10, 0))
	}
	fmt.Println(internetstudy.SpeedEffectStream(res))
	small, big := res.Agg.SmallMem, res.Agg.BigMem
	fmt.Printf("memory split at %.0f MB: small f_d=%.2f over %d runs; big f_d=%.2f over %d runs\n",
		res.MedianMB, small.Fd(), small.N(), big.Fd(), big.N())
	return nil
}

// runConvergence runs the streaming study at each fleet size and prints
// the two EXPERIMENTS.md curves: wall-clock/RSS vs fleet size, and
// comfort-metric convergence (CPU f_d and c_a with bootstrap CIs).
func runConvergence(base internetstudy.StreamConfig, sizes string) error {
	fmt.Printf("convergence: profile=%s runs/host=%d churn=%v pop-seed=%d\n",
		base.Profile.Name, base.RunsPerHost, base.Churn.Enabled, base.Seed)
	fmt.Printf("%10s %10s %8s %9s %8s %8s %8s %21s\n",
		"hosts", "folded", "wall_s", "heap_mb", "cpu_fd", "cpu_ca", "ci_width", "ca_95%_bootstrap")
	for _, field := range strings.Split(sizes, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil || n <= 0 {
			return fmt.Errorf("bad fleet size %q", field)
		}
		cfg := base
		cfg.Hosts = n
		start := time.Now()
		res, err := internetstudy.RunStreaming(cfg)
		if err != nil {
			return err
		}
		wall := time.Since(start).Seconds()
		cpu := res.Agg.ByResource[testcase.CPU]
		ca, _ := cpu.MeanLevel()
		lo, hi, ok := cpu.BootstrapMeanCI(stats.NewStream(cfg.Seed+1), 200, 0.025)
		ci := "n/a"
		width := 0.0
		if ok {
			ci = fmt.Sprintf("[%6.3f, %6.3f]", lo, hi)
			width = hi - lo
		}
		fmt.Printf("%10d %10d %8.1f %9s %8.3f %8.3f %8.3f %21s\n",
			n, res.Agg.Folded, wall, heapMB(), cpu.Fd(), ca, width, ci)
	}
	return nil
}

// heapMB reports live heap after a collection — the bounded-memory
// claim is about state the study retains, not transient garbage.
func heapMB() string {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return fmt.Sprintf("%.0f", float64(ms.HeapAlloc)/(1<<20))
}

// runLegacy drives the original protocol-faithful fleet engine.
func runLegacy(hosts, runs, tcCount int, seed uint64, workers int, workdir string) error {
	dir := workdir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "uucs-internet-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}

	cfg := internetstudy.DefaultConfig(dir)
	cfg.Hosts = hosts
	cfg.RunsPerHost = runs
	cfg.TestcaseCount = tcCount
	cfg.Seed = seed
	cfg.Workers = workers
	fmt.Printf("uucs-internet: legacy fleet, %d hosts x %d runs against %d testcases\n", cfg.Hosts, cfg.RunsPerHost, cfg.TestcaseCount)

	res, err := internetstudy.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("collected %d runs from %d hosts\n\n", len(res.Runs), len(res.Hosts))

	for _, r := range testcase.Resources() {
		c := res.DB.ResourceCDF(r)
		fmt.Println(c.Render("Internet-study CDF for "+string(r), 60, 10, 0))
	}
	se, err := internetstudy.HostSpeedEffect(res)
	if err != nil {
		return err
	}
	fmt.Println(se)
	ms, err := internetstudy.MemorySizeSplit(res)
	if err != nil {
		return err
	}
	fmt.Println(ms)
	return nil
}
