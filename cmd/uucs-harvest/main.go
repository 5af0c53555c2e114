// Command uucs-harvest evaluates resource-borrowing policies over a
// simulated desktop fleet — the paper's §1 motivation quantified: how
// much background CPU does each policy harvest, and how many users does
// it annoy into disabling the framework?
//
// Usage:
//
//	uucs-harvest                       # 40 users, 8h day, 4 policies
//	uucs-harvest -users 100 -hours 10 -target 0.02
//	uucs-harvest -cluster ./cluster-state   # CDFs from harvested fleet data
//
// -cluster skips the controlled study and instead derives the
// discomfort CDFs from real harvested data: a cluster state root (the
// tree a routed uucs ingest cluster journals under) whose node and
// replica journals are discovered and deterministically merged —
// deduplicated by client and batch sequence — into the analysis
// database the throttled policies' ceilings are read from.
package main

import (
	"flag"
	"fmt"
	"os"

	"uucs/internal/analysis"
	"uucs/internal/cluster"
	"uucs/internal/comfort"
	"uucs/internal/core"
	"uucs/internal/harvest"
	"uucs/internal/profiling"
	"uucs/internal/study"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "uucs-harvest:", err)
		os.Exit(1)
	}
}

// run is the whole command. It returns the error main reports, so the
// deferred profile stop has run, and the profile is complete, before
// main exits.
func run() error {
	var (
		users       = flag.Int("users", 40, "fleet size")
		hours       = flag.Float64("hours", 8, "day length")
		target      = flag.Float64("target", 0.05, "CDF discomfort target for the throttled policies")
		seed        = flag.Uint64("seed", 2004, "fleet seed")
		fixed       = flag.Float64("fixed", 0.2, "level for the fixed-priority baseline policy")
		clusterRoot = flag.String("cluster", "", "derive the CDFs from this cluster state root (merged node journals) instead of running a controlled study")
		spillMB     = flag.Int("merge-spill-mb", 0, "per-worker in-memory merge chunk bound in MB before spilling to a temp file (0 = default 32)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProfile  = flag.String("memprofile", "", "write an allocation profile (allocs) to this file on exit")
	)
	flag.Parse()
	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer stopProfiles()

	// Measure the CDFs first (§5: exploit them) — from a cluster's
	// merged dataset when one is given, else from a controlled study.
	var db *analysis.DB
	if *clusterRoot != "" {
		opt := cluster.MergeOptions{SpillBytes: *spillMB << 20}
		runs, st, err := cluster.MergedRunsOpts(*clusterRoot, opt)
		if err != nil {
			return fmt.Errorf("cluster %s: %w", *clusterRoot, err)
		}
		fmt.Printf("uucs-harvest: merged %d sources under %s (%d batches, %d duplicates dropped, %d runs, %d spills)\n",
			st.Sources, *clusterRoot, st.Batches, st.DupBatches, len(runs), st.Spills)
		db = analysis.NewDB(runs)
	} else {
		fmt.Println("uucs-harvest: measuring discomfort CDFs (controlled study)...")
		res, err := study.Run(study.DefaultConfig())
		if err != nil {
			return err
		}
		db = res.DB
	}
	ceilings := harvest.CeilingsFromStudy(db, *target)
	fmt.Printf("per-task CPU ceilings at the %.0f%% level: %v\n\n", *target*100, ceilings)

	fleet, err := comfort.SamplePopulation(*users, comfort.DefaultPopulation(), *seed)
	if err != nil {
		return err
	}
	day := harvest.DefaultDay()
	day.Hours = *hours
	policies := []func() harvest.Policy{
		func() harvest.Policy { return harvest.ScreensaverOnly{Delay: 600, Max: 1} },
		func() harvest.Policy { return harvest.FixedLevel{L: *fixed, Max: 1} },
		func() harvest.Policy { return &harvest.CDFThrottle{Ceilings: ceilings, Max: 1} },
		func() harvest.Policy {
			return &harvest.CDFThrottle{Ceilings: ceilings, Max: 1, Backoff: 0.3, MinWorthwhile: 0.1}
		},
	}
	results, table, err := harvest.Compare(policies, fleet, day, core.NewEngine(), *seed)
	if err != nil {
		return err
	}
	fmt.Println(table)

	var ss, fb *harvest.Result
	for i := range results {
		switch results[i].Policy {
		case "screensaver-only":
			ss = &results[i]
		case "cdf+feedback":
			fb = &results[i]
		}
	}
	if ss != nil && fb != nil && ss.HarvestedCPUHours > 0 {
		fmt.Printf("cdf+feedback harvests %.1fx the screensaver default with %d/%d uninstalls\n",
			fb.HarvestedCPUHours/ss.HarvestedCPUHours, fb.Uninstalls, fb.Users)
	}
	return nil
}
