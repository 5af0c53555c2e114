// Command uucs-study runs the controlled user-comfort study (paper §3)
// and prints any of its figures and tables.
//
// Usage:
//
//	uucs-study                     # run the study, print every figure
//	uucs-study -figure 16          # print one figure (9..18 or "frog")
//	uucs-study -users 50 -seed 7   # vary the population
//	uucs-study -suite              # print the Figure 8 testcase table
//	uucs-study -runs results.txt   # also dump raw run records
package main

import (
	"flag"
	"fmt"
	"os"

	"uucs/internal/core"
	"uucs/internal/profiling"
	"uucs/internal/study"
	"uucs/internal/testcase"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "uucs-study:", err)
		os.Exit(1)
	}
}

// run is the whole command. It returns the error main reports, so the
// deferred profile stop has run, and the profile is complete, before
// main exits.
func run() error {
	var (
		figure     = flag.String("figure", "", "figure to print (9..18, frog); empty prints all")
		users      = flag.Int("users", 33, "number of study participants")
		seed       = flag.Uint64("seed", 2004, "study seed")
		workers    = flag.Int("workers", 0, "concurrent study units (0 = GOMAXPROCS, 1 = serial; results are identical)")
		suite      = flag.Bool("suite", false, "print the Figure 8 testcase suite and exit")
		ablate     = flag.Bool("ablate", false, "run the model ablations and exit")
		runsPath   = flag.String("runs", "", "also write raw run records to this file")
		withLoad   = flag.Bool("load", false, "include monitor load samples in -runs output")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()

	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer stopProfiles()

	if *suite {
		if err := printSuite(); err != nil {
			return err
		}
		return nil
	}

	cfg := study.DefaultConfig()
	cfg.Users = *users
	cfg.Seed = *seed
	cfg.Workers = *workers

	if *ablate {
		results, err := study.RunAblations(cfg)
		if err != nil {
			return err
		}
		fmt.Println(study.RenderAblations(results))
		return nil
	}

	res, err := study.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("controlled study: %d users, %d runs (seed %d)\n\n", len(res.Users), len(res.Runs), cfg.Seed)

	if *figure != "" {
		s, err := res.Figure(*figure)
		if err != nil {
			return err
		}
		fmt.Println(s)
	} else {
		fmt.Println(res.RenderAll())
	}

	if *runsPath != "" {
		f, err := os.Create(*runsPath)
		if err != nil {
			return err
		}
		err = core.EncodeRuns(f, res.Runs, *withLoad)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("wrote %d run records to %s\n", len(res.Runs), *runsPath)
	}
	return nil
}

func printSuite() error {
	all, err := testcase.ControlledSuiteAll()
	if err != nil {
		return err
	}
	fmt.Println("Figure 8. Testcase descriptions for the 4 tasks (run in random order).")
	for _, task := range testcase.Tasks() {
		fmt.Printf("%s:\n", testcase.TaskLabel(task))
		for i, tc := range all[task] {
			fmt.Printf("  %d. %s\n", i+1, tc)
		}
	}
	return nil
}
