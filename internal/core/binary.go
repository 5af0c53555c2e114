package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"uucs/internal/hostsim"
	"uucs/internal/testcase"
)

// Binary run records. The server journals every accepted upload, and
// writes its snapshot aggregate, in this form instead of text, so that
// restart replay, failover promotion and the cluster merge decode runs
// without lexing lines or parsing floats. Text stays the exchange
// format: the wire, the export and the merge output. A batch is
//
//	uvarint  run count
//	per run:
//	  uvarint  len(id), len(params), len(shape)
//	  bytes    id, params, shape
//	  byte     task code (1 + index in testcase.Tasks())
//	  varint   user id
//	  byte     outcome code (1 discomfort, 2 exhausted)
//	  float64  offset
//	  byte     primary resource code (0 none, 1 + index in cpu, memory, disk)
//	  byte     level mask (bit i: resource i has a level), one float64 per set bit
//	  uvarint  lastfive count per resource (0 none), then the values, resource by resource
//	  varint   events
//	  uvarint  load sample count, then time, cpu, mem and diskq per sample
//
// Floats are their raw little-endian IEEE 754 bits, so every value —
// -0, NaN, subnormals — comes back bit for bit. The encoding covers
// exactly what the text format carries, so for any runs ParseRuns
// returned, ParseRunsBinary(AppendRunsBinary(runs)) equals them.

// tasks is testcase.Tasks() without the per-call slice.
var tasks = testcase.Tasks()

// minBinaryRun is the fewest bytes one encoded run occupies: three
// string lengths, the task, user, outcome, eight offset bytes, the
// primary and mask bytes, three lastfive counts, events and the load
// count.
const minBinaryRun = 3 + 1 + 1 + 1 + 8 + 1 + 1 + 3 + 1 + 1

// AppendRunsBinary appends the binary encoding of runs to dst and
// returns the extended buffer. Load samples are always included. A run
// whose task, outcome or primary resource is not one ParseRuns accepts
// encodes a code ParseRunsBinary rejects, as its text fails ParseRuns.
func AppendRunsBinary(dst []byte, runs []*Run) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(runs)))
	for _, r := range runs {
		dst = appendRunBinary(dst, r)
	}
	return dst
}

func appendRunBinary(dst []byte, r *Run) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(r.TestcaseID)))
	dst = binary.AppendUvarint(dst, uint64(len(r.Params)))
	dst = binary.AppendUvarint(dst, uint64(len(r.Shape)))
	dst = append(dst, r.TestcaseID...)
	dst = append(dst, r.Params...)
	dst = append(dst, r.Shape...)
	dst = append(dst, taskCode(r.Task))
	dst = binary.AppendVarint(dst, int64(r.UserID))
	var outcome byte
	switch r.Terminated {
	case Discomfort:
		outcome = 1
	case Exhausted:
		outcome = 2
	}
	dst = append(dst, outcome)
	dst = appendFloatBits(dst, r.Offset)
	dst = append(dst, resourceCode(r.PrimaryResource))
	// Map lookups are most of the encoder's time, so each map is looked
	// up once per resource and only until all its entries are found.
	// Keys other than the known resources are skipped, as AppendRuns
	// skips them.
	maskAt := len(dst)
	dst = append(dst, 0)
	for i, found := 0, 0; i < len(resources) && found < len(r.Levels); i++ {
		if v, ok := r.Levels[resources[i]]; ok {
			dst[maskAt] |= 1 << i
			dst = appendFloatBits(dst, v)
			found++
		}
	}
	var last [len(resources)][]float64
	for i, found := 0, 0; i < len(resources) && found < len(r.LastFive); i++ {
		if vs, ok := r.LastFive[resources[i]]; ok {
			last[i] = vs
			found++
		}
	}
	for _, vs := range last {
		dst = binary.AppendUvarint(dst, uint64(len(vs)))
	}
	for _, vs := range last {
		for _, v := range vs {
			dst = appendFloatBits(dst, v)
		}
	}
	dst = binary.AppendVarint(dst, int64(r.Events))
	dst = binary.AppendUvarint(dst, uint64(len(r.Load)))
	for _, l := range r.Load {
		dst = appendFloatBits(dst, l.Time)
		dst = appendFloatBits(dst, l.CPU)
		dst = appendFloatBits(dst, l.MemFrac)
		dst = appendFloatBits(dst, l.DiskQ)
	}
	return dst
}

func appendFloatBits(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func taskCode(t testcase.Task) byte {
	for i, known := range tasks {
		if t == known {
			return byte(i + 1)
		}
	}
	return 0
}

func resourceCode(res testcase.Resource) byte {
	for i, known := range resources {
		if res == known {
			return byte(i + 1)
		}
	}
	return 0
}

// BinaryRunChunker cuts runs, handed to Add in order over any number of
// calls, into consecutive batches, each an AppendRunsBinary encoding of
// at most maxBytes unless a single run is larger, and hands each to
// emit; Close emits the last. The cut depends only on the runs, not on
// how they were split between calls. A chunk is reused once emit
// returns. No runs emit nothing.
type BinaryRunChunker struct {
	maxBytes    int
	emit        func(chunk []byte) error
	body, chunk []byte
	n           int // runs in body
}

// NewBinaryRunChunker returns a chunker that cuts at maxBytes and hands
// the chunks to emit.
func NewBinaryRunChunker(maxBytes int, emit func(chunk []byte) error) *BinaryRunChunker {
	return &BinaryRunChunker{maxBytes: maxBytes, emit: emit}
}

// Add encodes runs after the ones already added, emitting every chunk
// that fills up. The first emit error is returned.
func (c *BinaryRunChunker) Add(runs []*Run) error {
	for _, r := range runs {
		end := len(c.body)
		c.body = appendRunBinary(c.body, r)
		if c.n > 0 && uvarintLen(c.n+1)+len(c.body) > c.maxBytes {
			if err := c.flush(end); err != nil {
				return err
			}
		}
		c.n++
	}
	return nil
}

// Close emits the runs not yet emitted, if any.
func (c *BinaryRunChunker) Close() error {
	if c.n == 0 {
		return nil
	}
	return c.flush(len(c.body))
}

// flush emits the first n runs, which end at end in body.
func (c *BinaryRunChunker) flush(end int) error {
	c.chunk = binary.AppendUvarint(c.chunk[:0], uint64(c.n))
	c.chunk = append(c.chunk, c.body[:end]...)
	c.body, c.n = append(c.body[:0], c.body[end:]...), 0
	return c.emit(c.chunk)
}

func uvarintLen(n int) int {
	var b [binary.MaxVarintLen64]byte
	return binary.PutUvarint(b[:], uint64(n))
}

// A binary batch is checked by one walk, runWalk: a run at a time,
// every field against the bytes left, with the offsets in locals. A
// failed check records a fault (what failed, where, and the values its
// message quotes) and stops the walk; the error text is formatted from
// the fault only then. CountRunsBinary is the walk alone; ParseRunsBinary
// builds each run from what the walk found, reading nothing unchecked.

// faultKind names the check a batch failed.
type faultKind uint8

const (
	faultBad       faultKind = iota + 1 // a varint does not parse: "bad <field>"
	faultCount                          // a count exceeds the bytes left
	faultStrings                        // a run's strings exceed the bytes left
	faultTruncated                      // a one-byte field is past the end
	faultTask
	faultOutcome
	faultFloat // a float is past the end
	faultPrimary
	faultMask
	faultLastFive // a run's lastfive values exceed the bytes left
	faultTrailing // bytes follow the last run
)

// lengthFields names a run's three string lengths.
var lengthFields = [3]string{"id length", "params length", "shape length"}

// runWalk walks one binary batch. After a successful run, its fields
// describe the run just walked: its values, and the offsets of its
// strings and floats in data. After a failure, the fault fields say
// what failed.
type runWalk struct {
	data []byte
	pos  int // where the next run starts

	strs                       int // offset of the id; params and shape follow it
	idLen, paramsLen, shapeLen int
	task, outcome, primary     byte // codes, checked
	mask                       byte
	user, events               int
	offset                     int // offset of the Offset float; the primary, mask and levels follow it
	last                       [len(resources)]int
	lastAt                     int // offset of the lastfive values
	samples, loadAt            int

	fault   faultKind
	field   string // the varint a faultBad or faultCount is about
	faultAt int    // the offset the error reports
	v       uint64 // the value the error quotes
	left    int    // the bytes left the error quotes
}

// fail records the first fault and reports false, the walk's result.
func (w *runWalk) fail(kind faultKind, field string, at int, v uint64, left int) bool {
	w.fault, w.field, w.faultAt, w.v, w.left = kind, field, at, v, left
	return false
}

// runCount reads the batch's run count, checked against the bytes
// left at minBinaryRun bytes a run.
func (w *runWalk) runCount() (int, bool) {
	d, p := w.data, 0
	var v uint64
	if len(d) > 0 && d[0] < 0x80 {
		v, p = uint64(d[0]), 1
	} else {
		var n int
		if v, n = binary.Uvarint(d); n <= 0 {
			return 0, w.fail(faultBad, "run count", 0, 0, 0)
		}
		p = n
	}
	// v > left/size without the division: v <= left keeps v*size far
	// from overflowing.
	if left := uint64(len(d) - p); v > left || v*minBinaryRun > left {
		return 0, w.fail(faultCount, "run count", p, v, len(d)-p)
	}
	w.pos = p
	return int(v), true
}

// run walks the run at w.pos and moves w.pos past it. It reports false
// at the first field that fails its check, with the fault recorded.
func (w *runWalk) run() bool {
	d, p := w.data, w.pos
	var lens [3]int
	for i := range lens {
		var v uint64
		if p < len(d) && d[p] < 0x80 {
			v = uint64(d[p])
			p++
		} else {
			var n int
			if v, n = binary.Uvarint(d[p:]); n <= 0 {
				return w.fail(faultBad, lengthFields[i], p, 0, 0)
			}
			p += n
		}
		if v > uint64(len(d)-p) {
			return w.fail(faultCount, lengthFields[i], p, v, len(d)-p)
		}
		lens[i] = int(v)
	}
	strs := lens[0] + lens[1] + lens[2]
	if strs > len(d)-p {
		return w.fail(faultStrings, "", p, uint64(strs), len(d)-p)
	}
	w.strs, w.idLen, w.paramsLen, w.shapeLen = p, lens[0], lens[1], lens[2]
	p += strs

	// The fixed fields: task, user, outcome, offset, primary and mask.
	if p >= len(d) {
		return w.fail(faultTruncated, "", p, 0, 0)
	}
	c := d[p]
	p++
	if c == 0 || int(c) > len(tasks) {
		return w.fail(faultTask, "", p, uint64(c), 0)
	}
	w.task = c
	if p < len(d) && d[p] < 0x80 {
		u := d[p] // zigzag, as binary.Varint decodes it
		w.user = int(u>>1) ^ -int(u&1)
		p++
	} else {
		v, n := binary.Varint(d[p:])
		if n <= 0 || int64(int(v)) != v {
			return w.fail(faultBad, "user id", p, 0, 0)
		}
		w.user = int(v)
		p += n
	}
	if p >= len(d) {
		return w.fail(faultTruncated, "", p, 0, 0)
	}
	c = d[p]
	p++
	if c == 0 || c > 2 {
		return w.fail(faultOutcome, "", p, uint64(c), 0)
	}
	w.outcome = c
	if len(d)-p < 8 {
		return w.fail(faultFloat, "", p, 0, 0)
	}
	w.offset = p
	p += 8
	if p >= len(d) {
		return w.fail(faultTruncated, "", p, 0, 0)
	}
	c = d[p]
	p++
	if int(c) > len(resources) {
		return w.fail(faultPrimary, "", p, uint64(c), 0)
	}
	w.primary = c
	if p >= len(d) {
		return w.fail(faultTruncated, "", p, 0, 0)
	}
	c = d[p]
	p++
	if c >= 1<<len(resources) {
		return w.fail(faultMask, "", p, uint64(c), 0)
	}
	w.mask = c

	// Levels, lastfive, events and load samples.
	if levels := 8 * bits.OnesCount8(c); levels > len(d)-p {
		return w.fail(faultFloat, "", p+(len(d)-p)&^7, 0, 0)
	} else {
		p += levels
	}
	total := 0
	for i := range w.last {
		var v uint64
		if p < len(d) && d[p] < 0x80 {
			v = uint64(d[p])
			p++
		} else {
			var n int
			if v, n = binary.Uvarint(d[p:]); n <= 0 {
				return w.fail(faultBad, "lastfive count", p, 0, 0)
			}
			p += n
		}
		if left := uint64(len(d) - p); v > left || v*8 > left {
			return w.fail(faultCount, "lastfive count", p, v, len(d)-p)
		}
		w.last[i] = int(v)
		total += int(v)
	}
	if total > (len(d)-p)/8 {
		return w.fail(faultLastFive, "", p, uint64(total), len(d)-p)
	}
	w.lastAt = p
	p += 8 * total
	if p < len(d) && d[p] < 0x80 {
		u := d[p]
		w.events = int(u>>1) ^ -int(u&1)
		p++
	} else {
		v, n := binary.Varint(d[p:])
		if n <= 0 || int64(int(v)) != v {
			return w.fail(faultBad, "events", p, 0, 0)
		}
		w.events = int(v)
		p += n
	}
	var v uint64
	if p < len(d) && d[p] < 0x80 {
		v = uint64(d[p])
		p++
	} else {
		var n int
		if v, n = binary.Uvarint(d[p:]); n <= 0 {
			return w.fail(faultBad, "load sample count", p, 0, 0)
		}
		p += n
	}
	if left := uint64(len(d) - p); v > left || v*32 > left {
		return w.fail(faultCount, "load sample count", p, v, len(d)-p)
	}
	w.samples, w.loadAt = int(v), p
	w.pos = p + 32*int(v)
	return true
}

// err formats the recorded fault. A fault in run i (0-based) of n
// names the run, as a fault in the run count (i < 0) does not.
func (w *runWalk) err(i, n int) error {
	var msg string
	switch w.fault {
	case faultBad:
		msg = "bad " + w.field
	case faultCount:
		msg = fmt.Sprintf("%s %d exceeds the %d bytes left", w.field, w.v, w.left)
	case faultStrings:
		msg = fmt.Sprintf("strings of %d bytes exceed the %d bytes left", w.v, w.left)
	case faultTruncated:
		msg = "truncated run"
	case faultTask:
		msg = fmt.Sprintf("unknown task code %d", w.v)
	case faultOutcome:
		msg = fmt.Sprintf("unknown outcome code %d", w.v)
	case faultFloat:
		msg = "truncated float"
	case faultPrimary:
		msg = fmt.Sprintf("unknown primary resource code %d", w.v)
	case faultMask:
		msg = fmt.Sprintf("bad level mask %#x", w.v)
	case faultLastFive:
		msg = fmt.Sprintf("lastfive values of %d floats exceed the %d bytes left", w.v, w.left)
	case faultTrailing:
		return fmt.Errorf("core: binary runs: %d trailing bytes after %d runs", w.left, n)
	}
	if i < 0 {
		return fmt.Errorf("core: binary runs: offset %d: %s", w.faultAt, msg)
	}
	return fmt.Errorf("core: binary runs: offset %d: %s (run %d of %d)", w.faultAt, msg, i+1, n)
}

// end reports whether the walk ended at the end of data, recording a
// faultTrailing if not.
func (w *runWalk) end() bool {
	if w.pos == len(w.data) {
		return true
	}
	return w.fail(faultTrailing, "", w.pos, 0, len(w.data)-w.pos)
}

// ParseRunsBinary decodes a batch AppendRunsBinary wrote. The runs
// equal what ParseRuns returns for the same runs' text: non-nil Levels
// and LastFive maps, nil Load when there are no samples, and Blank
// derived the same way. Every string is copied, so the runs never
// refer to data. Any input that is not exactly one well-formed batch
// is an error; every count is checked against the bytes left before
// anything is allocated for it.
func ParseRunsBinary(data []byte) ([]*Run, error) {
	w := runWalk{data: data}
	n, ok := w.runCount()
	if !ok {
		return nil, w.err(-1, 0)
	}
	block := make([]Run, n)
	out := make([]*Run, n)
	for i := range block {
		if !w.run() {
			return nil, w.err(i, n)
		}
		w.build(&block[i])
		out[i] = &block[i]
	}
	if !w.end() {
		return nil, w.err(n, n)
	}
	return out, nil
}

// CountRunsBinary checks that data is one well-formed batch and returns
// how many runs it holds, without allocating: it is ParseRunsBinary's
// walk, building nothing, so it accepts exactly the inputs
// ParseRunsBinary accepts, with the same count and the same error text.
func CountRunsBinary(data []byte) (int, error) {
	w := runWalk{data: data}
	n, ok := w.runCount()
	if !ok {
		return 0, w.err(-1, 0)
	}
	for i := 0; i < n; i++ {
		if !w.run() {
			return 0, w.err(i, n)
		}
	}
	if !w.end() {
		return 0, w.err(n, n)
	}
	return n, nil
}

// build decodes the run just walked into r. One copy holds the run's
// strings.
func (w *runWalk) build(r *Run) {
	d := w.data
	strs := string(d[w.strs : w.strs+w.idLen+w.paramsLen+w.shapeLen])
	r.TestcaseID, r.Params = strs[:w.idLen], strs[w.idLen:w.idLen+w.paramsLen]
	r.Shape = testcase.Shape(strs[w.idLen+w.paramsLen:])
	r.Task = tasks[w.task-1]
	r.UserID = w.user
	r.Terminated = Discomfort
	if w.outcome == 2 {
		r.Terminated = Exhausted
	}
	r.Offset = floatAt(d, w.offset)
	if w.primary > 0 {
		r.PrimaryResource = resources[w.primary-1]
	}
	r.Levels = make(map[testcase.Resource]float64)
	at := w.offset + 10 // past the offset, primary and mask
	zero := true        // every level is zero
	for i, res := range resources {
		if w.mask&(1<<i) != 0 {
			v := floatAt(d, at)
			r.Levels[res], zero = v, zero && v == 0
			at += 8
		}
	}
	r.LastFive = make(map[testcase.Resource][]float64)
	if total := w.last[0] + w.last[1] + w.last[2]; total > 0 {
		vals := make([]float64, total)
		for i := range vals {
			vals[i] = floatAt(d, w.lastAt+8*i)
		}
		for i, res := range resources {
			if c := w.last[i]; c > 0 {
				r.LastFive[res] = vals[:c:c]
				vals = vals[c:]
			}
		}
	}
	r.Events = w.events
	if w.samples > 0 {
		r.Load = make([]hostsim.Load, w.samples)
		for i := range r.Load {
			o := w.loadAt + 32*i
			r.Load[i] = hostsim.Load{Time: floatAt(d, o), CPU: floatAt(d, o+8), MemFrac: floatAt(d, o+16), DiskQ: floatAt(d, o+24)}
		}
	}
	// The decode-side blank heuristic: no levels, or only zero ones and
	// no primary resource.
	r.Blank = w.mask == 0 || w.primary == 0 && zero
}

func floatAt(d []byte, at int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(d[at:]))
}
