package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"uucs/internal/hostsim"
	"uucs/internal/testcase"
)

// The method-per-field binary run reader that the fused walk in
// binary.go replaced, kept verbatim as a test-only oracle:
// FuzzRunWalkDifferential holds CountRunsBinary and ParseRunsBinary to
// its accept/reject decisions, its run counts, its error texts and its
// runs.

// refRunReader reads one binary batch. The first failure sticks in err
// and zeroes every later read, so callers check once per run.
type refRunReader struct {
	data []byte
	pos  int
	err  error
}

func (rd *refRunReader) fail(format string, args ...any) {
	if rd.err == nil {
		rd.err = fmt.Errorf("core: binary runs: offset %d: %s", rd.pos, fmt.Sprintf(format, args...))
		rd.pos = len(rd.data)
	}
}

func (rd *refRunReader) left() int { return len(rd.data) - rd.pos }

func (rd *refRunReader) uvarint(what string) uint64 {
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
func (rd *refRunReader) count(what string, size int) int {
	v := rd.uvarint(what)
	// v > left/size without the division: v <= left keeps v*size far
	// from overflowing.
	if left := uint64(rd.left()); v > left || v*uint64(size) > left {
		rd.fail("%s %d exceeds the %d bytes left", what, v, rd.left())
		return 0
	}
	return int(v)
}

func (rd *refRunReader) varint(what string) int {
	v, n := binary.Varint(rd.data[rd.pos:])
	if n <= 0 || int64(int(v)) != v {
		rd.fail("bad %s", what)
		return 0
	}
	rd.pos += n
	return int(v)
}

func (rd *refRunReader) byte() byte {
	if rd.pos >= len(rd.data) {
		rd.fail("truncated run")
		return 0
	}
	b := rd.data[rd.pos]
	rd.pos++
	return b
}

func (rd *refRunReader) float() float64 {
	if rd.left() < 8 {
		rd.fail("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(rd.data[rd.pos:]))
	rd.pos += 8
	return v
}

// refParseRunsBinary decodes a batch AppendRunsBinary wrote. The runs
// equal what ParseRuns returns for the same runs' text: non-nil Levels
// and LastFive maps, nil Load when there are no samples, and Blank
// derived the same way. Every string is copied, so the runs never
// refer to data. Any input that is not exactly one well-formed batch
// is an error; every count is checked against the bytes left before
// anything is allocated for it.
func refParseRunsBinary(data []byte) ([]*Run, error) {
	rd := refRunReader{data: data}
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

// refCountRunsBinary checks that data is one well-formed batch and returns
// how many runs it holds, without allocating: it is the walk
// refParseRunsBinary makes, building nothing. It accepts exactly the
// inputs refParseRunsBinary accepts, with the same count and the same
// error text.
func refCountRunsBinary(data []byte) (int, error) {
	rd := refRunReader{data: data}
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
func (rd *refRunReader) runs(n int, block []Run) error {
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
func (rd *refRunReader) readRun(r *Run) {
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
