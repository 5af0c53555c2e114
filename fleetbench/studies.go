package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"uucs/internal/hostpop"
	"uucs/internal/internetstudy"
	"uucs/internal/study"
)

// studyShare is the share of the time budget the controlled study's
// repetitions may use; the streaming study gets the rest.
const studyShare = 0.4

// goldenFigures maps each controlled-study figure to its golden
// rendering at the paper's seed, in internal/study/testdata.
var goldenFigures = map[string]string{
	"9":    "fig09_breakdown.golden",
	"10":   "fig10_cpu_cdf.golden",
	"11":   "fig11_mem_cdf.golden",
	"12":   "fig12_disk_cdf.golden",
	"13":   "fig13_sensitivity.golden",
	"14":   "fig14_fd.golden",
	"15":   "fig15_c005.golden",
	"16":   "fig16_ca.golden",
	"17":   "fig17_skill.golden",
	"18":   "fig18_grid.golden",
	"frog": "frog_ramp_step.golden",
	"km":   "km_survival.golden",
}

// runStudies is the studies workload: no network and no journal. The
// controlled study is the paper's fixed experiment (33 users, seed
// 2004), so every repetition must reproduce the golden figures; the
// workload seed generates the streaming internet study's population.
// Set-up is the first controlled study, with a cold kernel memo. Then
// the controlled study runs serially and renders its figures, again and
// again, and then the streaming internet study runs on nproc workers,
// again and again.
//
// End-to-end: op = one controlled study (study.Run), aux = rendering
// its figures (RenderAll), ops_per_s = streaming-study runs per second,
// bulk = the streaming study (wall time and peak heap), live_heap = the
// controlled study's results held after a forced collection.
func runStudies(r *run) error {
	sz := r.sz
	golden, err := readGoldens(r.repo)
	if err != nil {
		return err
	}
	cfg := study.DefaultConfig()
	cfg.Users, cfg.Workers = sz.StudyUsers, 1
	// controlled runs the controlled study and renders its figures,
	// checking them against the goldens.
	controlled := func(ln *lane, parent uint64, what string) (rep controlledRep, err error) {
		sp := ln.begin("study.run", parent, 0)
		rt0 := readRuntime()
		w := r.watch()
		rep.res, err = study.Run(cfg)
		rep.run = w.stop()
		rep.allocs = readRuntime().since(rt0).allocObjs
		ln.end(sp)
		r.attempted++
		if err != nil {
			return rep, fmt.Errorf("controlled study: %w", err)
		}
		sp = ln.begin("study.render_all", parent, 0)
		w = r.watch()
		figs := rep.res.RenderAll()
		rep.render = w.stop()
		ln.end(sp)
		r.check(figs == golden.all, "%s: figures differ from the goldens (first: %s)", what, golden.firstDiff(figs))
		return rep, nil
	}

	ln0 := r.tr.lane() // set-up is traced in a traced run
	h := ln0.begin("bench.setup", 0, 0)
	w := r.watch()
	if _, err := controlled(ln0, ln0.id(h), "set-up"); err != nil {
		return err
	}
	setup := w.stop()
	ln0.end(h)
	ln0.close()

	scfg := internetstudy.DefaultStreamConfig()
	scfg.Hosts, scfg.RunsPerHost, scfg.Seed = sz.InetHosts, sz.InetRuns, r.seed
	scfg.Churn, scfg.Workers = hostpop.DefaultChurn(), runtime.NumCPU()

	var (
		runs, renders, inet     []timing
		liveMB, inetMB, genMs   []float64
		studyAllocs, inetAllocs []float64
		inetRuns                float64
		firstSummary            string
		last                    *internetstudy.StreamAggregates
	)
	// The controlled study first, serially and StudyShare of the time
	// budget, then the streaming study. They share the kernel memo, so
	// running them in two blocks gives the controlled study the same
	// memo history on every run, whatever the seed.
	err = r.roundsUntil(studyShare, func(i int, ln *lane) error {
		rep, err := controlled(ln, 0, fmt.Sprintf("controlled study %d", i))
		if err != nil {
			return err
		}
		runs, renders = append(runs, rep.run), append(renders, rep.render)
		r.opLatency(i, []float64{float64(rep.run.wall) / 1e6})
		studyAllocs = append(studyAllocs, ratio(float64(rep.allocs), float64(len(rep.res.Runs))))
		liveMB = append(liveMB, liveHeapMB())
		runtime.KeepAlive(rep.res)
		return nil
	})
	if err != nil {
		return err
	}

	// The streaming internet study on nproc workers.
	err = r.rounds(func(i int, ln *lane) error {
		if ln != nil {
			sp := ln.begin("hostpop.generate", 0, 0)
			t0 := time.Now()
			_, err := hostpop.Generate(scfg.Hosts, hostpop.Heien(), scfg.Seed, scfg.Workers)
			genMs = append(genMs, float64(time.Since(t0))/1e6)
			ln.end(sp)
			if err != nil {
				return err
			}
		}
		var (
			sres *internetstudy.StreamResults
			took timing
		)
		rt0 := readRuntime()
		peak, err := peakHeapMB(func() error {
			sp := ln.begin("internetstudy.run_streaming", 0, 0)
			w := r.watch()
			var err error
			sres, err = internetstudy.RunStreaming(scfg)
			took = w.stop()
			ln.end(sp)
			return err
		})
		r.attempted++
		if err != nil {
			// RunStreaming checks its own stream accounting (Attempted ==
			// Folded + Blank + Crashed == Hosts × RunsPerHost) and fails
			// when it does not hold, which ends the run.
			return fmt.Errorf("streaming study: %w", err)
		}
		allocs := readRuntime().since(rt0).allocObjs
		ag := sres.Agg
		inet = append(inet, took)
		inetMB = append(inetMB, peak)
		inetRuns += float64(ag.Attempted)
		inetAllocs = append(inetAllocs, ratio(float64(allocs), float64(ag.Attempted)))
		summary := sres.Summary()
		if i == 0 {
			firstSummary = summary
		}
		r.check(summary == firstSummary, "streaming study %d: summary differs from the first", i)
		last = ag
		return nil
	})
	if err != nil {
		return err
	}

	r.phase("setup_s", []timing{setup})
	ms, raw := r.secs(runs), wallSeconds(runs)
	for i := range ms {
		ms[i], raw[i] = 1e3*ms[i], 1e3*raw[i]
	}
	r.latency(ms)
	r.wall["op_p50_ms"], r.wall["op_p75_ms"] = quantile(raw, 0.5), quantile(raw, 0.75)
	r.throughput("ops_per_s", inetRuns, inet)
	r.m["live_heap_mb"] = median(liveMB)
	r.phase("bulk_s", inet)
	r.m["bulk_heap_mb"] = median(inetMB)
	r.phase("aux_s", renders)

	r.m["study.run_ms"] = r.wall["op_p50_ms"]
	r.m["study.render_ms"] = 1e3 * median(wallSeconds(renders))
	r.m["study.allocs_per_run"] = median(studyAllocs)
	r.m["internetstudy.runs_per_s"] = r.wall["ops_per_s"]
	r.m["internetstudy.allocs_per_run"] = median(inetAllocs)
	r.m["internetstudy.runs_attempted"] = float64(last.Attempted)
	r.m["internetstudy.crashed"] = float64(last.Crashed)
	r.m["internetstudy.blank"] = float64(last.Blank)
	r.m["hostpop.generate_ms"] = median(genMs)
	return nil
}

// controlledRep is one repetition of the controlled study.
type controlledRep struct {
	res         *study.Results
	run, render timing
	allocs      uint64 // heap allocations made by study.Run
}

// goldens are the controlled study's figures at the paper's seed, as
// committed in internal/study/testdata.
type goldens struct {
	ids  []string // figure ids, in rendering order
	figs []string // each figure's golden rendering
	all  string   // what RenderAll returns: every figure plus a newline
}

func readGoldens(repo string) (goldens, error) {
	var g goldens
	for _, id := range study.FigureIDs() {
		file, ok := goldenFigures[id]
		if !ok {
			return g, fmt.Errorf("figure %s has no golden", id)
		}
		b, err := os.ReadFile(filepath.Join(repo, "internal", "study", "testdata", file))
		if err != nil {
			return g, fmt.Errorf("read golden: %w", err)
		}
		g.ids, g.figs = append(g.ids, id), append(g.figs, string(b))
		g.all += string(b) + "\n"
	}
	return g, nil
}

// firstDiff names the first figure where a RenderAll output departs
// from the goldens.
func (g goldens) firstDiff(all string) string {
	for k, fig := range g.figs {
		next := fig + "\n"
		if !strings.HasPrefix(all, next) {
			return "figure " + g.ids[k]
		}
		all = all[len(next):]
	}
	return "trailing output"
}
