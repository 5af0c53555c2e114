package core

import (
	"encoding/binary"
	"fmt"
	"math"

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

// runReader reads one binary batch. The first failure sticks in err
// and zeroes every later read, so callers check once per run.
type runReader struct {
	data []byte
	pos  int
	err  error
}

func (rd *runReader) fail(format string, args ...any) {
	if rd.err == nil {
		rd.err = fmt.Errorf("core: binary runs: offset %d: %s", rd.pos, fmt.Sprintf(format, args...))
		rd.pos = len(rd.data)
	}
}

func (rd *runReader) left() int { return len(rd.data) - rd.pos }

func (rd *runReader) uvarint(what string) uint64 {
	// Lengths and counts almost always fit one byte.
	if rd.pos < len(rd.data) && rd.data[rd.pos] < 0x80 {
		rd.pos++
		return uint64(rd.data[rd.pos-1])
	}
	v, n := binary.Uvarint(rd.data[rd.pos:])
	if n <= 0 {
		rd.fail("bad %s", what)
		return 0
	}
	rd.pos += n
	return v
}

// count reads a uvarint count of items of at least size bytes each and
// fails unless the rest of the input can hold that many.
func (rd *runReader) count(what string, size int) int {
	v := rd.uvarint(what)
	// v > left/size without the division: v <= left keeps v*size far
	// from overflowing.
	if left := uint64(rd.left()); v > left || v*uint64(size) > left {
		rd.fail("%s %d exceeds the %d bytes left", what, v, rd.left())
		return 0
	}
	return int(v)
}

func (rd *runReader) varint(what string) int {
	v, n := binary.Varint(rd.data[rd.pos:])
	if n <= 0 || int64(int(v)) != v {
		rd.fail("bad %s", what)
		return 0
	}
	rd.pos += n
	return int(v)
}

func (rd *runReader) byte() byte {
	if rd.pos >= len(rd.data) {
		rd.fail("truncated run")
		return 0
	}
	b := rd.data[rd.pos]
	rd.pos++
	return b
}

func (rd *runReader) float() float64 {
	if rd.left() < 8 {
		rd.fail("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(rd.data[rd.pos:]))
	rd.pos += 8
	return v
}

// ParseRunsBinary decodes a batch AppendRunsBinary wrote. The runs
// equal what ParseRuns returns for the same runs' text: non-nil Levels
// and LastFive maps, nil Load when there are no samples, and Blank
// derived the same way. Every string is copied, so the runs never
// refer to data. Any input that is not exactly one well-formed batch
// is an error; every count is checked against the bytes left before
// anything is allocated for it.
func ParseRunsBinary(data []byte) ([]*Run, error) {
	rd := runReader{data: data}
	n := rd.count("run count", minBinaryRun)
	if rd.err != nil {
		return nil, rd.err
	}
	block := make([]Run, n)
	out := make([]*Run, n)
	for i := range block {
		out[i] = &block[i]
	}
	if err := rd.runs(n, block); err != nil {
		return nil, err
	}
	return out, nil
}

// CountRunsBinary checks that data is one well-formed batch and returns
// how many runs it holds, without allocating: it is the walk
// ParseRunsBinary makes, building nothing. It accepts exactly the
// inputs ParseRunsBinary accepts, with the same count and the same
// error text.
func CountRunsBinary(data []byte) (int, error) {
	rd := runReader{data: data}
	n := rd.count("run count", minBinaryRun)
	if rd.err != nil {
		return 0, rd.err
	}
	if err := rd.runs(n, nil); err != nil {
		return 0, err
	}
	return n, nil
}

// runs reads n runs and checks that nothing follows them. Run i is
// decoded into block[i]; a nil block only checks the runs.
func (rd *runReader) runs(n int, block []Run) error {
	for i := 0; i < n; i++ {
		var r *Run
		if block != nil {
			r = &block[i]
		}
		rd.readRun(r)
		if rd.err != nil {
			return fmt.Errorf("%w (run %d of %d)", rd.err, i+1, n)
		}
	}
	if rd.left() != 0 {
		return fmt.Errorf("core: binary runs: %d trailing bytes after %d runs", rd.left(), n)
	}
	return nil
}

// readRun decodes one run into r, leaving rd.err set on failure. A nil
// r reads and checks the same fields and keeps none of them, so it
// allocates nothing.
func (rd *runReader) readRun(r *Run) {
	build := r != nil
	if !build {
		r = new(Run) // stays on the stack: nothing below keeps it
	}
	idLen := rd.count("id length", 1)
	paramsLen := rd.count("params length", 1)
	shapeLen := rd.count("shape length", 1)
	if rd.err != nil {
		return
	}
	if idLen+paramsLen+shapeLen > rd.left() {
		rd.fail("strings of %d bytes exceed the %d bytes left", idLen+paramsLen+shapeLen, rd.left())
		return
	}
	if build {
		// One copy holds the run's strings.
		strs := string(rd.data[rd.pos : rd.pos+idLen+paramsLen+shapeLen])
		r.TestcaseID, r.Params = strs[:idLen], strs[idLen:idLen+paramsLen]
		r.Shape = testcase.Shape(strs[idLen+paramsLen:])
	}
	rd.pos += idLen + paramsLen + shapeLen

	if c := rd.byte(); c >= 1 && int(c) <= len(tasks) {
		r.Task = tasks[c-1]
	} else {
		rd.fail("unknown task code %d", c)
	}
	r.UserID = rd.varint("user id")
	switch c := rd.byte(); c {
	case 1:
		r.Terminated = Discomfort
	case 2:
		r.Terminated = Exhausted
	default:
		rd.fail("unknown outcome code %d", c)
	}
	r.Offset = rd.float()
	if c := rd.byte(); int(c) <= len(resources) {
		if c > 0 {
			r.PrimaryResource = resources[c-1]
		}
	} else {
		rd.fail("unknown primary resource code %d", c)
	}
	mask := rd.byte()
	if mask >= 1<<len(resources) {
		rd.fail("bad level mask %#x", mask)
	}
	if rd.err != nil {
		return
	}
	if build {
		r.Levels = make(map[testcase.Resource]float64)
	}
	for i, res := range resources {
		if mask&(1<<i) != 0 {
			if v := rd.float(); build {
				r.Levels[res] = v
			}
		}
	}
	var counts [len(resources)]int
	total := 0
	for i := range counts {
		counts[i] = rd.count("lastfive count", 8)
		total += counts[i]
	}
	if total > rd.left()/8 {
		rd.fail("lastfive values of %d floats exceed the %d bytes left", total, rd.left())
	}
	if rd.err != nil {
		return
	}
	if !build {
		rd.pos += 8 * total // checked against the bytes left above
	} else {
		r.LastFive = make(map[testcase.Resource][]float64)
		if total > 0 {
			vals := make([]float64, total)
			for i := range vals {
				vals[i] = rd.float()
			}
			for i, res := range resources {
				if c := counts[i]; c > 0 {
					r.LastFive[res] = vals[:c:c]
					vals = vals[c:]
				}
			}
		}
	}
	r.Events = rd.varint("events")
	samples := rd.count("load sample count", 32)
	if !build {
		rd.pos += 32 * samples // checked against the bytes left by count
		return
	}
	if samples > 0 {
		r.Load = make([]hostsim.Load, samples)
		for i := range r.Load {
			r.Load[i] = hostsim.Load{Time: rd.float(), CPU: rd.float(), MemFrac: rd.float(), DiskQ: rd.float()}
		}
	}
	r.Blank = len(r.Levels) == 0 || allZeroLevels(r)
}
