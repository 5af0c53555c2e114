package testcase

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"unicode"

	"uucs/internal/textrec"
)

// Binary testcase records. The server journals its testcase store, and
// writes it into snapshots, in this form instead of text, so that
// restart replay and failover promotion decode testcases without
// lexing lines or parsing floats. Text stays the exchange format: sync
// replies and client stores. A batch is testcases back to back, so it
// may be cut at any testcase end; one testcase is
//
//	uvarint  len(id), len(shape), len(params)
//	bytes    id, shape, params
//	float64  sample rate (the text grammar states one per testcase)
//	byte     function count
//	per function: byte resource code (0 cpu, 1 memory, 2 disk),
//	         ascending, and uvarint sample count
//	float64  the samples, function by function
//
// Floats are their raw little-endian IEEE 754 bits, so every value —
// -0, NaN, subnormals — comes back bit for bit, and the text rendered
// from a decoded testcase is the text of the one encoded. The encoding
// holds exactly the testcases the text format can state: for any
// testcases Parse returned, ParseBinary of their AppendBinary encodings
// renders the same text through Append.

// maxFloatText is the longest text one sample takes in a function line:
// a separating space and strconv's longest shortest-form float64.
const maxFloatText = 1 + len("-2.2250738585072014e-308")

// AppendBinary validates tc, checks that the text format can state it,
// and appends its binary encoding to dst. On error dst comes back
// unchanged. It allocates nothing once dst has room.
func AppendBinary(dst []byte, tc *Testcase) ([]byte, error) {
	if err := tc.Validate(); err != nil {
		return dst, err
	}
	if err := checkText(tc); err != nil {
		return dst, err
	}
	dst = binary.AppendUvarint(dst, uint64(len(tc.ID)))
	dst = binary.AppendUvarint(dst, uint64(len(tc.Shape)))
	dst = binary.AppendUvarint(dst, uint64(len(tc.Params)))
	dst = append(dst, tc.ID...)
	dst = append(dst, tc.Shape...)
	dst = append(dst, tc.Params...)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(tc.SampleRate))
	var fns [len(resourceOrder)][]float64
	countAt := len(dst)
	dst = append(dst, 0)
	for code, r := range resourceOrder {
		if f, ok := tc.Functions[r]; ok {
			fns[code] = f.Values
			dst[countAt]++
			dst = append(dst, byte(code))
			dst = binary.AppendUvarint(dst, uint64(len(f.Values)))
		}
	}
	for _, vs := range fns {
		for _, v := range vs {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return dst, nil
}

// checkText reports whether the text format states tc as it is: Parse
// of Append's text must give back the same id, params and samples, and
// the same shape, ShapeBlank standing in for none. An id or shape
// holding whitespace would split into more fields, params not joined by
// single spaces would be re-joined, params without a shape would be
// dropped, and a line of textrec.MaxLine bytes or more is refused. It
// assumes tc is valid.
func checkText(tc *Testcase) error {
	switch {
	case hasSpace(tc.ID):
		return fmt.Errorf("testcase %q: id holds whitespace", tc.ID)
	case hasSpace(string(tc.Shape)):
		return fmt.Errorf("testcase %s: shape %q holds whitespace", tc.ID, tc.Shape)
	case tc.Shape == "" && tc.Params != "":
		return fmt.Errorf("testcase %s: params %q without a shape", tc.ID, tc.Params)
	case !joinedFields(tc.Params):
		return fmt.Errorf("testcase %s: params %q are not fields joined by single spaces", tc.ID, tc.Params)
	case len("testcase ")+len(tc.ID) >= textrec.MaxLine, shapeLineLen(tc) >= textrec.MaxLine:
		return fmt.Errorf("testcase %s: a line reaches %d bytes", tc.ID, textrec.MaxLine)
	}
	for r, f := range tc.Functions {
		if !functionLineFits(r, f.Values) {
			return fmt.Errorf("testcase %s: %s function line reaches %d bytes", tc.ID, r, textrec.MaxLine)
		}
	}
	return nil
}

// shapeLineLen is the length of Append's shape line for tc.
func shapeLineLen(tc *Testcase) int {
	n := len("shape ") + len(tc.Shape)
	if tc.Params != "" {
		n += len(" ") + len(tc.Params)
	}
	return n
}

// hasSpace reports whether s holds a rune the text lexer splits fields
// at (textrec.Fields).
func hasSpace(s string) bool {
	for _, r := range s {
		if unicode.IsSpace(r) {
			return true
		}
	}
	return false
}

// joinedFields reports whether s is whitespace-free fields joined by
// single spaces, the only params textrec.Join gives back.
func joinedFields(s string) bool {
	space := true // at the start, a space would lead
	for _, r := range s {
		if unicode.IsSpace(r) {
			if r != ' ' || space {
				return false
			}
			space = true
		} else {
			space = false
		}
	}
	return s == "" || !space
}

// functionLineFits reports whether the function line of vs is shorter
// than textrec.MaxLine. Only a function of over half a million samples
// needs its floats formatted to tell.
func functionLineFits(r Resource, vs []float64) bool {
	n := len("function ") + len(r)
	if n+len(vs)*maxFloatText < textrec.MaxLine {
		return true
	}
	var buf [32]byte
	for _, v := range vs {
		if n += 1 + len(strconv.AppendFloat(buf[:0], v, 'g', -1, 64)); n >= textrec.MaxLine {
			return false
		}
	}
	return true
}

// tcReader reads one binary batch. The first failure sticks in err and
// zeroes every later read, so callers check once per field group.
type tcReader struct {
	data []byte
	pos  int
	err  error
}

func (rd *tcReader) fail(format string, args ...any) {
	if rd.err == nil {
		rd.err = fmt.Errorf("testcase: binary: offset %d: %s", rd.pos, fmt.Sprintf(format, args...))
		rd.pos = len(rd.data)
	}
}

func (rd *tcReader) left() int { return len(rd.data) - rd.pos }

// count reads a uvarint count of items of size bytes each and fails
// unless the rest of the input can hold that many.
func (rd *tcReader) count(what string, size int) int {
	v, n := binary.Uvarint(rd.data[rd.pos:])
	if n <= 0 {
		rd.fail("bad %s", what)
		return 0
	}
	rd.pos += n
	// v > left/size without the division: v <= left keeps v*size far
	// from overflowing.
	if left := uint64(rd.left()); v > left || v*uint64(size) > left {
		rd.fail("%s %d exceeds the %d bytes left", what, v, rd.left())
		return 0
	}
	return int(v)
}

func (rd *tcReader) byte(what string) byte {
	if rd.pos >= len(rd.data) {
		rd.fail("truncated %s", what)
		return 0
	}
	rd.pos++
	return rd.data[rd.pos-1]
}

func (rd *tcReader) float(what string) float64 {
	if rd.left() < 8 {
		rd.fail("truncated %s", what)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(rd.data[rd.pos:]))
	rd.pos += 8
	return v
}

// ParseBinary decodes a batch of AppendBinary encodings. Every count is
// checked against the bytes left before anything is allocated for it,
// and every testcase must pass Validate and be one the text format
// states (the checks AppendBinary makes), so ParseBinary accepts no
// testcase that Parse could not have returned. The testcases never
// refer to data: their strings are copied.
func ParseBinary(data []byte) ([]*Testcase, error) {
	rd := tcReader{data: data}
	var out []*Testcase
	for rd.left() > 0 {
		tc := rd.testcase()
		if rd.err == nil {
			if rd.err = tc.Validate(); rd.err == nil {
				rd.err = checkText(tc)
			}
		}
		if rd.err != nil {
			return nil, fmt.Errorf("%w (testcase %d)", rd.err, len(out)+1)
		}
		out = append(out, tc)
	}
	return out, nil
}

// testcase decodes one testcase, leaving rd.err set on failure. Its
// strings share one copy of the input, and its functions one array of
// samples.
func (rd *tcReader) testcase() *Testcase {
	idLen := rd.count("id length", 1)
	shapeLen := rd.count("shape length", 1)
	paramsLen := rd.count("params length", 1)
	if rd.err == nil && idLen+shapeLen+paramsLen > rd.left() {
		rd.fail("strings of %d bytes exceed the %d bytes left", idLen+shapeLen+paramsLen, rd.left())
	}
	if rd.err != nil {
		return nil
	}
	strs := string(rd.data[rd.pos : rd.pos+idLen+shapeLen+paramsLen])
	rd.pos += len(strs)
	tc := &Testcase{
		ID:     strs[:idLen],
		Shape:  Shape(strs[idLen : idLen+shapeLen]),
		Params: strs[idLen+shapeLen:],
	}
	tc.SampleRate = rd.float("sample rate")
	nfn := int(rd.byte("function count"))
	if rd.err == nil && nfn > len(resourceOrder) {
		rd.fail("%d functions, at most %d", nfn, len(resourceOrder))
	}
	var codes [len(resourceOrder)]byte
	var lens [len(resourceOrder)]int
	total := 0
	for i := 0; i < nfn && rd.err == nil; i++ {
		codes[i] = rd.byte("resource code")
		if rd.err == nil && (int(codes[i]) >= len(resourceOrder) || i > 0 && codes[i] <= codes[i-1]) {
			rd.fail("resource code %d out of order or unknown", codes[i])
		}
		lens[i] = rd.count("sample count", 8)
		total += lens[i]
	}
	if rd.err == nil && total > rd.left()/8 {
		rd.fail("%d samples exceed the %d bytes left", total, rd.left())
	}
	if rd.err != nil {
		return nil
	}
	tc.Functions = make(map[Resource]ExerciseFunction, nfn)
	samples := make([]float64, total)
	for i := range samples {
		samples[i] = math.Float64frombits(binary.LittleEndian.Uint64(rd.data[rd.pos+8*i:]))
	}
	rd.pos += 8 * total
	for i := 0; i < nfn; i++ {
		tc.Functions[resourceOrder[codes[i]]] = ExerciseFunction{Rate: tc.SampleRate, Values: samples[:lens[i]:lens[i]]}
		samples = samples[lens[i]:]
	}
	return tc
}
