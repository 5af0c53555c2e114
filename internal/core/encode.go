package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"unsafe"

	"uucs/internal/hostsim"
	"uucs/internal/pool"
	"uucs/internal/testcase"
	"uucs/internal/textrec"
)

// Run records are stored and transported as line-oriented text, like the
// paper's text-file result stores:
//
//	run <testcase-id>
//	task <task>
//	user <id>
//	shape <family> [params]
//	outcome <discomfort|exhausted> <offset>
//	primary <resource>            (omitted for blank testcases)
//	level <resource> <value>
//	lastfive <resource> <v1> ... <v5>
//	load <t> <cpu> <mem> <diskq>  (one per monitor sample)
//	events <n>
//	endrun
//
// Numbers are written in Go's shortest %g form. AppendRuns writes the
// text, TranscodeRuns reads it into the binary form (binary.go), and
// ParseRuns, EncodeRuns and DecodeRuns are built on those two.

// resources is testcase.Resources() without the per-call slice.
var resources = [...]testcase.Resource{testcase.CPU, testcase.Memory, testcase.Disk}

// AppendRuns appends the text encoding of runs to dst and returns the
// extended buffer. Monitor samples are included only when withLoad is
// set (hot-sync payloads omit them by default to stay small; the paper
// uploads them, and the server can ask for them).
func AppendRuns(dst []byte, runs []*Run, withLoad bool) []byte {
	for _, r := range runs {
		dst = append(dst, "run "...)
		dst = append(dst, r.TestcaseID...)
		dst = append(dst, "\ntask "...)
		dst = append(dst, r.Task...)
		dst = append(dst, "\nuser "...)
		dst = strconv.AppendInt(dst, int64(r.UserID), 10)
		dst = append(dst, '\n')
		if r.Shape != "" {
			dst = append(dst, "shape "...)
			dst = append(dst, r.Shape...)
			if r.Params != "" {
				dst = append(dst, ' ')
				dst = append(dst, r.Params...)
			}
			dst = append(dst, '\n')
		}
		dst = append(dst, "outcome "...)
		dst = append(dst, r.Terminated...)
		dst = append(dst, ' ')
		dst = appendFloat(dst, r.Offset)
		dst = append(dst, '\n')
		if r.PrimaryResource != "" {
			dst = append(dst, "primary "...)
			dst = append(dst, r.PrimaryResource...)
			dst = append(dst, '\n')
		}
		for _, res := range resources {
			if v, ok := r.Levels[res]; ok {
				dst = append(dst, "level "...)
				dst = append(dst, res...)
				dst = append(dst, ' ')
				dst = appendFloat(dst, v)
				dst = append(dst, '\n')
			}
		}
		for _, res := range resources {
			if vs := r.LastFive[res]; len(vs) > 0 {
				dst = append(dst, "lastfive "...)
				dst = append(dst, res...)
				for _, v := range vs {
					dst = append(dst, ' ')
					dst = appendFloat(dst, v)
				}
				dst = append(dst, '\n')
			}
		}
		dst = append(dst, "events "...)
		dst = strconv.AppendInt(dst, int64(r.Events), 10)
		dst = append(dst, '\n')
		if withLoad {
			for _, l := range r.Load {
				dst = append(dst, "load "...)
				dst = appendFloat(dst, l.Time)
				dst = append(dst, ' ')
				dst = appendFloat(dst, l.CPU)
				dst = append(dst, ' ')
				dst = appendFloat(dst, l.MemFrac)
				dst = append(dst, ' ')
				dst = appendFloat(dst, l.DiskQ)
				dst = append(dst, '\n')
			}
		}
		dst = append(dst, "endrun\n"...)
	}
	return dst
}

// appendFloat appends v as fmt's %g verb prints it.
func appendFloat(dst []byte, v float64) []byte {
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

// EncodeRuns writes runs to w in the text format; see AppendRuns.
// Below two blocks it encodes on the caller's goroutine through one
// pooled buffer without allocating; larger inputs go through
// EncodeRunBlocks, one w.Write per block.
func EncodeRuns(w io.Writer, runs []*Run, withLoad bool) error {
	if len(runs) < 2*blockRuns {
		return textrec.Write(w, runs, func(dst []byte, r *Run) ([]byte, error) {
			return AppendRuns(dst, []*Run{r}, withLoad), nil
		})
	}
	return EncodeRunBlocks(runs, withLoad, func(block []byte) error {
		_, err := w.Write(block)
		return err
	})
}

// blockRuns is how many consecutive runs EncodeRunBlocks encodes as one
// block.
const blockRuns = 512

// blockBufs pools the block buffers, so they outlive one call.
var blockBufs = sync.Pool{New: func() any { return new([]byte) }}

// blockSlot is one of the in-flight places a block is encoded into:
// the runs it covers and their encoding.
type blockSlot struct {
	buf  *[]byte
	runs []*Run
}

// EncodeRunBlocks encodes runs in order and hands the text to emit one
// block of blockRuns runs at a time (the last may be shorter). block is
// reused once emit returns. The concatenated blocks are exactly
// AppendRuns(nil, runs, withLoad) at any GOMAXPROCS.
//
// GOMAXPROCS workers encode blocks while the caller emits them
// strictly in block order, through pool.Ordered with 2×GOMAXPROCS
// slots, so memory stays bounded at any input size. The first emit
// error stops the encoding and is returned; emit is not called again,
// and every worker has exited by the time it returns.
func EncodeRunBlocks(runs []*Run, withLoad bool, emit func(block []byte) error) error {
	nblocks := (len(runs) + blockRuns - 1) / blockRuns
	if nblocks == 0 {
		return nil
	}
	procs := runtime.GOMAXPROCS(0)
	slots := make([]blockSlot, min(2*procs, nblocks))
	for i := range slots {
		slots[i].buf = blockBufs.Get().(*[]byte)
	}
	defer func() {
		for _, s := range slots {
			blockBufs.Put(s.buf)
		}
	}()
	next := 0
	return pool.Ordered(procs, slots,
		func(s *blockSlot) bool {
			s.runs = runs[next:min(next+blockRuns, len(runs))]
			next += len(s.runs)
			return len(s.runs) > 0
		},
		func(s *blockSlot) { *s.buf = AppendRuns((*s.buf)[:0], s.runs, withLoad) },
		func(s *blockSlot) error { return emit(*s.buf) })
}

// DecodeRuns reads r to EOF and parses the run records; see ParseRuns.
func DecodeRuns(r io.Reader) ([]*Run, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return ParseRuns(data)
}

// ParseRuns parses the run records in data: TranscodeRuns into a
// transient batch, then ParseRunsBinary. Every decoded string is a
// copy, so the caller may reuse data at once.
func ParseRuns(data []byte) ([]*Run, error) {
	batch, n, err := TranscodeRuns(make([]byte, 0, len(data)/2), data)
	if err != nil || n == 0 {
		return nil, err
	}
	return ParseRunsBinary(batch)
}

// transcoder is TranscodeRuns' pooled scratch: the run being read, and
// the backing of its params and lastfive values.
type transcoder struct {
	run    Run
	params []byte
	floats []float64
}

var transcoders = sync.Pool{New: func() any {
	return &transcoder{run: Run{Levels: make(map[testcase.Resource]float64), LastFive: make(map[testcase.Resource][]float64)}}
}}

// start empties the scratch run for the record of testcase id.
func (t *transcoder) start(id []byte) {
	r := &t.run
	clear(r.Levels)
	clear(r.LastFive)
	*r = Run{TestcaseID: borrow(id), Levels: r.Levels, LastFive: r.LastFive, Load: r.Load[:0]}
	t.floats = t.floats[:0]
}

// release drops what the scratch borrowed from the input and pools it,
// unless a run grew its buffers past 64 KiB.
func (t *transcoder) release() {
	t.start(nil)
	if 32*cap(t.run.Load)+cap(t.params)+8*cap(t.floats) <= 64<<10 {
		transcoders.Put(t)
	}
}

// borrow returns a string view of b; the scratch run's strings are
// views of the input, read only while it is transcoded.
func borrow(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// TranscodeRuns appends the binary batch (AppendRunsBinary's form) of
// the text run records in data to dst, and returns the extended buffer
// and the number of runs. It accepts and rejects exactly what ParseRuns
// does, with the same error text, and its batch is AppendRunsBinary of
// the runs ParseRuns returns; on an error it returns dst as it was.
// Each record is read into one pooled scratch Run, whose strings borrow
// from data, and appended at its endrun, so a warm call allocates
// nothing per run.
func TranscodeRuns(dst, data []byte) (batch []byte, n int, err error) {
	t := transcoders.Get().(*transcoder)
	defer t.release()
	cur := &t.run
	start := len(dst)
	batch = append(dst, 0) // the run count, widened at the end if need be
	var (
		open bool // inside a run record
		line int
		fbuf [8][]byte
		f    = fbuf[:0]
		text []byte
	)
	fail := func(format string, args ...any) ([]byte, int, error) {
		return dst, 0, fmt.Errorf("core: line %d: %s", line, fmt.Sprintf(format, args...))
	}
	for len(data) > 0 {
		if text, data, err = textrec.NextLine(data); err != nil {
			return dst, 0, err
		}
		line++
		if f = textrec.Fields(f, text); len(f) == 0 {
			continue
		}
		if !open && string(f[0]) != "run" {
			return fail("%q outside run record", f[0])
		}
		// Every directive except endrun carries at least one operand.
		if string(f[0]) != "endrun" && len(f) < 2 {
			return fail("directive %q without operands", f[0])
		}
		switch string(f[0]) {
		case "run":
			if open {
				return fail("nested run")
			}
			if len(f) != 2 {
				return fail("want 'run <testcase-id>'")
			}
			t.start(f[1])
			open = true
		case "task":
			task, err := parseTask(f[1])
			if err != nil {
				return fail("%v", err)
			}
			cur.Task = task
		case "user":
			id, err := strconv.Atoi(string(f[1]))
			if err != nil {
				return fail("bad user id: %v", err)
			}
			cur.UserID = id
		case "shape":
			cur.Shape = testcase.Shape(borrow(f[1]))
			if len(f) > 2 {
				t.params = append(t.params[:0], f[2]...)
				for _, p := range f[3:] {
					t.params = append(append(t.params, ' '), p...)
				}
				cur.Params = borrow(t.params)
			}
		case "outcome":
			if len(f) != 3 {
				return fail("want 'outcome <termination> <offset>'")
			}
			switch string(f[1]) {
			case string(Discomfort):
				cur.Terminated = Discomfort
			case string(Exhausted):
				cur.Terminated = Exhausted
			default:
				return fail("unknown termination %q", f[1])
			}
			v, err := strconv.ParseFloat(string(f[2]), 64)
			if err != nil {
				return fail("bad offset: %v", err)
			}
			cur.Offset = v
		case "primary":
			res, err := parseResource(f[1])
			if err != nil {
				return fail("%v", err)
			}
			cur.PrimaryResource = res
		case "level":
			if len(f) != 3 {
				return fail("want 'level <resource> <value>'")
			}
			res, err := parseResource(f[1])
			if err != nil {
				return fail("%v", err)
			}
			v, err := strconv.ParseFloat(string(f[2]), 64)
			if err != nil {
				return fail("bad level: %v", err)
			}
			cur.Levels[res] = v
		case "lastfive":
			if len(f) < 3 {
				return fail("want 'lastfive <resource> <values...>'")
			}
			res, err := parseResource(f[1])
			if err != nil {
				return fail("%v", err)
			}
			from := len(t.floats)
			for _, s := range f[2:] {
				v, err := strconv.ParseFloat(string(s), 64)
				if err != nil {
					return fail("bad lastfive value: %v", err)
				}
				t.floats = append(t.floats, v)
			}
			cur.LastFive[res] = t.floats[from:]
		case "events":
			events, err := strconv.Atoi(string(f[1]))
			if err != nil {
				return fail("bad events: %v", err)
			}
			cur.Events = events
		case "load":
			if len(f) != 5 {
				return fail("want 'load <t> <cpu> <mem> <diskq>'")
			}
			var vals [4]float64
			for i := range vals {
				v, err := strconv.ParseFloat(string(f[i+1]), 64)
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
			batch = appendRunBinary(batch, cur)
			n++
			open = false
		default:
			return fail("unknown directive %q", f[0])
		}
	}
	if open {
		return dst, 0, fmt.Errorf("core: unterminated run record at EOF")
	}
	if w := uvarintLen(n); w > 1 {
		var pad [binary.MaxVarintLen64]byte
		batch = slices.Insert(batch, start+1, pad[:w-1]...)
	}
	binary.PutUvarint(batch[start:], uint64(n))
	return batch, n, nil
}

// parseTask is testcase.ParseTask on bytes, allocation-free when the
// task is known.
func parseTask(b []byte) (testcase.Task, error) {
	for _, t := range testcase.Tasks() {
		if string(b) == string(t) {
			return t, nil
		}
	}
	return testcase.ParseTask(string(b))
}

// parseResource is testcase.ParseResource on bytes, allocation-free for
// the canonical lower-case names; any other spelling takes the
// case-folding path.
func parseResource(b []byte) (testcase.Resource, error) {
	for _, r := range resources {
		if string(b) == string(r) {
			return r, nil
		}
	}
	return testcase.ParseResource(string(b))
}
