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

// BinaryRunChunks encodes runs in order as consecutive batches, each
// an AppendRunsBinary encoding of at most maxBytes unless a single run
// is larger, and hands each to emit. The chunk is reused once emit
// returns. No runs emit nothing.
func BinaryRunChunks(runs []*Run, maxBytes int, emit func(chunk []byte) error) error {
	var body, chunk []byte
	n := 0
	flush := func(end int) error {
		chunk = binary.AppendUvarint(chunk[:0], uint64(n))
		chunk = append(chunk, body[:end]...)
		body, n = append(body[:0], body[end:]...), 0
		return emit(chunk)
	}
	for _, r := range runs {
		end := len(body)
		body = appendRunBinary(body, r)
		if n > 0 && uvarintLen(n+1)+len(body) > maxBytes {
			if err := flush(end); err != nil {
				return err
			}
		}
		n++
	}
	if n == 0 {
		return nil
	}
	return flush(len(body))
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
	if v > uint64(rd.left()/size) {
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
		r := &block[i]
		out[i] = r
		rd.readRun(r)
		if rd.err != nil {
			return nil, fmt.Errorf("%w (run %d of %d)", rd.err, i+1, n)
		}
	}
	if rd.left() != 0 {
		return nil, fmt.Errorf("core: binary runs: %d trailing bytes after %d runs", rd.left(), n)
	}
	return out, nil
}

// readRun decodes one run into r, leaving rd.err set on failure.
func (rd *runReader) readRun(r *Run) {
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
	// One copy holds the run's strings.
	strs := string(rd.data[rd.pos : rd.pos+idLen+paramsLen+shapeLen])
	rd.pos += len(strs)
	r.TestcaseID, r.Params = strs[:idLen], strs[idLen:idLen+paramsLen]
	r.Shape = testcase.Shape(strs[idLen+paramsLen:])

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
	r.Levels = make(map[testcase.Resource]float64)
	for i, res := range resources {
		if mask&(1<<i) != 0 {
			r.Levels[res] = rd.float()
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
	r.Events = rd.varint("events")
	if samples := rd.count("load sample count", 32); samples > 0 {
		r.Load = make([]hostsim.Load, samples)
		for i := range r.Load {
			r.Load[i] = hostsim.Load{Time: rd.float(), CPU: rd.float(), MemFrac: rd.float(), DiskQ: rd.float()}
		}
	}
	r.Blank = len(r.Levels) == 0 || allZeroLevels(r)
}
