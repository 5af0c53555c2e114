package core

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"uucs/internal/hostsim"
	"uucs/internal/testcase"
)

// The fmt/bufio.Scanner run-record codec that AppendRuns and ParseRuns
// replaced, kept verbatim as a test-only oracle: the differential fuzz
// target holds the production codec to its bytes, its accept/reject
// decisions and its error texts.

// refEncodeRuns writes runs to w in the text format. Monitor samples are
// included only when withLoad is set (hot-sync payloads omit them by
// default to stay small; the paper uploads them, and the server can ask
// for them).
func refEncodeRuns(w io.Writer, runs []*Run, withLoad bool) error {
	bw := bufio.NewWriter(w)
	for _, r := range runs {
		fmt.Fprintf(bw, "run %s\n", r.TestcaseID)
		fmt.Fprintf(bw, "task %s\n", r.Task)
		fmt.Fprintf(bw, "user %d\n", r.UserID)
		if r.Shape != "" {
			if r.Params != "" {
				fmt.Fprintf(bw, "shape %s %s\n", r.Shape, r.Params)
			} else {
				fmt.Fprintf(bw, "shape %s\n", r.Shape)
			}
		}
		fmt.Fprintf(bw, "outcome %s %g\n", r.Terminated, r.Offset)
		if r.PrimaryResource != "" {
			fmt.Fprintf(bw, "primary %s\n", r.PrimaryResource)
		}
		for _, res := range testcase.Resources() {
			if v, ok := r.Levels[res]; ok {
				fmt.Fprintf(bw, "level %s %g\n", res, v)
			}
		}
		for _, res := range testcase.Resources() {
			if vs, ok := r.LastFive[res]; ok && len(vs) > 0 {
				fmt.Fprintf(bw, "lastfive %s", res)
				for _, v := range vs {
					fmt.Fprintf(bw, " %g", v)
				}
				fmt.Fprintln(bw)
			}
		}
		fmt.Fprintf(bw, "events %d\n", r.Events)
		if withLoad {
			for _, l := range r.Load {
				fmt.Fprintf(bw, "load %g %g %g %g\n", l.Time, l.CPU, l.MemFrac, l.DiskQ)
			}
		}
		fmt.Fprintln(bw, "endrun")
	}
	return bw.Flush()
}

// refDecodeRuns parses run records from r.
func refDecodeRuns(r io.Reader) ([]*Run, error) {
	sc := bufio.NewScanner(r)
	// Cap lines at 16MB but let the scanner grow to it lazily: the server
	// decodes every uploaded batch through here, and a preallocated 1MB
	// buffer per call costs more in zeroing and GC than the parse itself.
	sc.Buffer(nil, 1<<24)
	var (
		out  []*Run
		cur  *Run
		line int
	)
	fail := func(format string, args ...any) ([]*Run, error) {
		return nil, fmt.Errorf("core: line %d: %s", line, fmt.Sprintf(format, args...))
	}
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		f := strings.Fields(text)
		if cur == nil && f[0] != "run" {
			return fail("%q outside run record", f[0])
		}
		// Every directive except endrun carries at least one operand.
		if f[0] != "endrun" && len(f) < 2 {
			return fail("directive %q without operands", f[0])
		}
		switch f[0] {
		case "run":
			if cur != nil {
				return fail("nested run")
			}
			if len(f) != 2 {
				return fail("want 'run <testcase-id>'")
			}
			cur = &Run{
				TestcaseID: f[1],
				Levels:     make(map[testcase.Resource]float64),
				LastFive:   make(map[testcase.Resource][]float64),
			}
		case "task":
			task, err := testcase.ParseTask(f[1])
			if err != nil {
				return fail("%v", err)
			}
			cur.Task = task
		case "user":
			id, err := strconv.Atoi(f[1])
			if err != nil {
				return fail("bad user id: %v", err)
			}
			cur.UserID = id
		case "shape":
			cur.Shape = testcase.Shape(f[1])
			if len(f) > 2 {
				cur.Params = strings.Join(f[2:], " ")
			}
		case "outcome":
			if len(f) != 3 {
				return fail("want 'outcome <termination> <offset>'")
			}
			switch Termination(f[1]) {
			case Discomfort, Exhausted:
				cur.Terminated = Termination(f[1])
			default:
				return fail("unknown termination %q", f[1])
			}
			v, err := strconv.ParseFloat(f[2], 64)
			if err != nil {
				return fail("bad offset: %v", err)
			}
			cur.Offset = v
		case "primary":
			res, err := testcase.ParseResource(f[1])
			if err != nil {
				return fail("%v", err)
			}
			cur.PrimaryResource = res
		case "level":
			if len(f) != 3 {
				return fail("want 'level <resource> <value>'")
			}
			res, err := testcase.ParseResource(f[1])
			if err != nil {
				return fail("%v", err)
			}
			v, err := strconv.ParseFloat(f[2], 64)
			if err != nil {
				return fail("bad level: %v", err)
			}
			cur.Levels[res] = v
		case "lastfive":
			if len(f) < 3 {
				return fail("want 'lastfive <resource> <values...>'")
			}
			res, err := testcase.ParseResource(f[1])
			if err != nil {
				return fail("%v", err)
			}
			vals := make([]float64, 0, len(f)-2)
			for _, s := range f[2:] {
				v, err := strconv.ParseFloat(s, 64)
				if err != nil {
					return fail("bad lastfive value: %v", err)
				}
				vals = append(vals, v)
			}
			cur.LastFive[res] = vals
		case "events":
			n, err := strconv.Atoi(f[1])
			if err != nil {
				return fail("bad events: %v", err)
			}
			cur.Events = n
		case "load":
			if len(f) != 5 {
				return fail("want 'load <t> <cpu> <mem> <diskq>'")
			}
			var vals [4]float64
			for i := 0; i < 4; i++ {
				v, err := strconv.ParseFloat(f[i+1], 64)
				if err != nil {
					return fail("bad load sample: %v", err)
				}
				vals[i] = v
			}
			cur.Load = append(cur.Load, hostsim.Load{Time: vals[0], CPU: vals[1], MemFrac: vals[2], DiskQ: vals[3]})
		case "endrun":
			// A record without its context or outcome is meaningless;
			// reject it rather than storing an unanalyzable run.
			if cur.Task == "" {
				return fail("run %s has no task", cur.TestcaseID)
			}
			if cur.Terminated == "" {
				return fail("run %s has no outcome", cur.TestcaseID)
			}
			cur.Blank = len(cur.Levels) == 0 || allZeroLevels(cur)
			out = append(out, cur)
			cur = nil
		default:
			return fail("unknown directive %q", f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if cur != nil {
		return nil, fmt.Errorf("core: unterminated run record at EOF")
	}
	return out, nil
}

// allZeroLevels reports whether every recorded level is zero and no
// primary resource was named — the decode-side blank heuristic.
func allZeroLevels(r *Run) bool {
	if r.PrimaryResource != "" {
		return false
	}
	for _, v := range r.Levels {
		if v != 0 {
			return false
		}
	}
	return true
}
