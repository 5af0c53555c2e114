// Command uucs-analyze imports result files into the analysis database
// and prints the paper's tables and CDFs — the analysis phase of
// Figure 2.
//
// Usage:
//
//	uucs-analyze results.txt                 # breakdown + metric tables
//	uucs-analyze -cdf cpu results.txt        # one aggregated CDF
//	uucs-analyze -grid results.txt           # the Figure 18 grid
//	uucs-analyze -cluster ./cluster-state    # merge a cluster's journals
//
// -cluster takes a cluster state root (the tree uucs-server/-router
// nodes journal under): every node and replica journal beneath it is
// discovered and deterministically merged — deduplicated by client and
// batch sequence, byte-identical regardless of node count or merge
// order — before analysis. It composes with result files: both are
// imported into the same database.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"uucs/internal/analysis"
	"uucs/internal/cluster"
	"uucs/internal/core"
	"uucs/internal/profiling"
	"uucs/internal/testcase"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "uucs-analyze:", err)
		os.Exit(1)
	}
}

// run is the whole command. It returns the error main reports, so the
// deferred profile stop has run, and the profile is complete, before
// main exits.
func run() error {
	var (
		cdfRes      = flag.String("cdf", "", "print the aggregated CDF for one resource (cpu, memory, disk)")
		grid        = flag.Bool("grid", false, "print the per-task/resource CDF grid (Figure 18)")
		km          = flag.String("km", "", "print the Kaplan-Meier discomfort curve for one resource")
		clusterRoot = flag.String("cluster", "", "cluster state root: merge every node and replica journal under it")
		spillMB     = flag.Int("merge-spill-mb", 0, "per-worker in-memory merge chunk bound in MB before spilling to a temp file (0 = default 32)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProfile  = flag.String("memprofile", "", "write an allocation profile (allocs) to this file on exit")
	)
	flag.Parse()
	if flag.NArg() == 0 && *clusterRoot == "" {
		fmt.Fprintln(os.Stderr, "usage: uucs-analyze [flags] results.txt...")
		os.Exit(2)
	}
	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer stopProfiles()

	db := analysis.NewDB(nil)
	if *clusterRoot != "" {
		opt := cluster.MergeOptions{SpillBytes: *spillMB << 20}
		runs, st, err := cluster.MergedRunsOpts(*clusterRoot, opt)
		if err != nil {
			return fmt.Errorf("cluster %s: %w", *clusterRoot, err)
		}
		fmt.Printf("merged %d sources under %s: %d batches kept, %d duplicates dropped, %d spills (%d bytes)\n",
			st.Sources, *clusterRoot, st.Batches, st.DupBatches, st.Spills, st.SpilledBytes)
		db.Add(runs...)
	}
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		runs, err := core.DecodeRuns(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		db.Add(runs...)
	}
	fmt.Printf("imported %d runs\n\n", db.Len())

	switch {
	case *km != "":
		res, err := testcase.ParseResource(*km)
		if err != nil {
			return err
		}
		curve, err := db.KMResourceCurve(res)
		if err != nil {
			return err
		}
		fmt.Printf("Kaplan-Meier discomfort estimate for %s (censoring-corrected):\n", res)
		fmt.Printf("%8s %10s %8s %7s\n", "level", "discomfort", "at-risk", "events")
		for _, pt := range curve {
			fmt.Printf("%8.2f %10.3f %8d %7d\n", pt.Level, 1-pt.S, pt.AtRisk, pt.Events)
		}
		if v, ok := analysis.KMC05(curve); ok {
			fmt.Printf("KM c_0.05 = %.2f\n", v)
		}
	case *cdfRes != "":
		res, err := testcase.ParseResource(*cdfRes)
		if err != nil {
			return err
		}
		c := db.ResourceCDF(res)
		fmt.Println(c.Render("CDF of discomfort for "+string(res), 60, 12, 0))
	case *grid:
		for _, task := range testcase.Tasks() {
			for _, res := range testcase.Resources() {
				c := db.TaskResourceCDF(task, res)
				fmt.Println(c.Render(fmt.Sprintf("%s / %s", testcase.TaskLabel(task), res), 48, 8, 0))
			}
		}
	default:
		printBreakdown(db)
		printMetrics(db)
	}
	return nil
}

func printBreakdown(db *analysis.DB) {
	fmt.Println("Breakdown of runs:")
	for _, row := range db.Breakdown() {
		label := "Total"
		if row.Task != "" {
			label = testcase.TaskLabel(row.Task)
		}
		fmt.Printf("  %-18s df=%-4d ex=%-4d blank-df=%-3d blank-ex=%-3d noise=%.2f\n",
			label, row.NonBlankDiscomforted, row.NonBlankExhausted,
			row.BlankDiscomforted, row.BlankExhausted, row.NoiseFloor())
	}
	fmt.Println()
}

func printMetrics(db *analysis.DB) {
	table := db.MetricsTable()
	letters := analysis.SensitivityTable(table)
	fmt.Printf("%-14s %-8s %6s %8s %8s %20s %4s\n", "task", "resource", "f_d", "c_05", "c_a", "95% CI", "sens")
	rows := append([]testcase.Task{}, testcase.Tasks()...)
	rows = append(rows, testcase.Task(""))
	for _, task := range rows {
		for _, res := range testcase.Resources() {
			m, err := analysis.Cell(table, task, res)
			if err != nil {
				continue
			}
			label := "Total"
			if task != "" {
				label = testcase.TaskLabel(task)
			}
			c05 := "*"
			if m.HasC05 {
				c05 = fmt.Sprintf("%.2f", m.C05)
			}
			ca, ci := "*", strings.Repeat(" ", 13)
			if m.HasCa {
				ca = fmt.Sprintf("%.2f", m.Ca)
				ci = fmt.Sprintf("(%.2f, %.2f)", m.CaLo, m.CaHi)
			}
			fmt.Printf("%-14s %-8s %6.2f %8s %8s %20s %4s\n",
				label, res, m.Fd, c05, ca, ci, letters[task][res])
		}
	}
}
