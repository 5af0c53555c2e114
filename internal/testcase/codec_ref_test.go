package testcase

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"
)

// The fmt/bufio.Scanner testcase codec that Append and Parse replaced,
// kept as a test-only oracle for FuzzTestcaseCodecDifferential.

// refEncode writes the testcase to w in the text format.
func refEncode(w io.Writer, tc *Testcase) error {
	if err := tc.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "testcase %s\n", tc.ID)
	fmt.Fprintf(bw, "rate %g\n", tc.SampleRate)
	if tc.Shape != "" {
		if tc.Params != "" {
			fmt.Fprintf(bw, "shape %s %s\n", tc.Shape, tc.Params)
		} else {
			fmt.Fprintf(bw, "shape %s\n", tc.Shape)
		}
	}
	for _, r := range Resources() {
		f, ok := tc.Functions[r]
		if !ok {
			continue
		}
		fmt.Fprintf(bw, "function %s", r)
		for _, v := range f.Values {
			fmt.Fprintf(bw, " %g", v)
		}
		fmt.Fprintln(bw)
	}
	fmt.Fprintln(bw, "end")
	return bw.Flush()
}

// refDecodeAll parses every testcase from r.
func refDecodeAll(r io.Reader) ([]*Testcase, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24) // exercise functions can be long lines
	var (
		out  []*Testcase
		cur  *Testcase
		line int
	)
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "testcase":
			if cur != nil {
				return nil, fmt.Errorf("testcase: line %d: nested testcase without end", line)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("testcase: line %d: want 'testcase <id>'", line)
			}
			cur = New(fields[1], 0)
			cur.SampleRate = 0
		case "rate":
			if cur == nil {
				return nil, fmt.Errorf("testcase: line %d: rate outside testcase", line)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("testcase: line %d: want 'rate <hz>'", line)
			}
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return nil, fmt.Errorf("testcase: line %d: bad rate: %w", line, err)
			}
			cur.SampleRate = v
		case "shape":
			if cur == nil {
				return nil, fmt.Errorf("testcase: line %d: shape outside testcase", line)
			}
			if len(fields) < 2 {
				return nil, fmt.Errorf("testcase: line %d: want 'shape <family> [params]'", line)
			}
			cur.Shape = Shape(fields[1])
			if len(fields) > 2 {
				cur.Params = strings.Join(fields[2:], " ")
			}
		case "function":
			if cur == nil {
				return nil, fmt.Errorf("testcase: line %d: function outside testcase", line)
			}
			if len(fields) < 2 {
				return nil, fmt.Errorf("testcase: line %d: want 'function <resource> <values...>'", line)
			}
			res, err := ParseResource(fields[1])
			if err != nil {
				return nil, fmt.Errorf("testcase: line %d: %w", line, err)
			}
			vals := make([]float64, 0, len(fields)-2)
			for _, f := range fields[2:] {
				v, err := strconv.ParseFloat(f, 64)
				if err != nil {
					return nil, fmt.Errorf("testcase: line %d: bad sample %q: %w", line, f, err)
				}
				vals = append(vals, v)
			}
			cur.Functions[res] = ExerciseFunction{Rate: cur.SampleRate, Values: vals}
		case "end":
			if cur == nil {
				return nil, fmt.Errorf("testcase: line %d: end outside testcase", line)
			}
			// Bind the function rates here so the rate directive may
			// appear anywhere within the testcase block.
			for r, f := range cur.Functions {
				f.Rate = cur.SampleRate
				cur.Functions[r] = f
			}
			if err := cur.Validate(); err != nil {
				return nil, fmt.Errorf("testcase: line %d: %w", line, err)
			}
			out = append(out, cur)
			cur = nil
		default:
			return nil, fmt.Errorf("testcase: line %d: unknown directive %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if cur != nil {
		return nil, fmt.Errorf("testcase: unterminated testcase %s at EOF", cur.ID)
	}
	return out, nil
}

// codecSeeds is the seed corpus of the text codec fuzz targets: odd
// spacing and line ends, special float spellings, and each kind of
// rejection, an over-long line included.
func codecSeeds() []string {
	return []string{
		"",
		"testcase a\nrate 1\nshape ramp   2,120 \t x\nfunction cpu 0 1 2\nend\n",
		"# c\r\n\r\ntestcase b\r\nrate 0.5\r\nfunction memory 0.1 1e-7 -0\r\nfunction disk 1e21 5e-324 +Inf\r\nend\r\n",
		"testcase c d\nrate 1\u0085\nfunction CPU 1\nend\n",
		"testcase n\nrate NaN\nend\n",
		"testcase x\nrate 1\nfunction memory 2\nend\n",
		"testcase y\nrate 1\nfunction cpu 1 x\nend\n",
		"testcase z\nfunction cpu 1\nrate 2\nend",
		"rate 1\n",
		"testcase a\ntestcase b\n",
		"testcase a\nbogus\n",
		"testcase a\nrate 1\nend\n#" + strings.Repeat("x", 1<<24),
	}
}

// FuzzTestcaseCodecDifferential holds Parse and EncodeAll to the
// reference codec: the same accept/reject decision and error text, the
// same testcases, and the same encoded bytes.
func FuzzTestcaseCodecDifferential(f *testing.F) {
	for _, s := range codecSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		want, wantErr := refDecodeAll(strings.NewReader(input))
		got, err := Parse([]byte(input))
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("Parse error = %v, reference %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if len(got) != len(want) {
			t.Fatalf("Parse: %d testcases, reference %d", len(got), len(want))
		}
		var ref bytes.Buffer
		for i := range want {
			if got[i].ID != want[i].ID || got[i].Shape != want[i].Shape || got[i].Params != want[i].Params ||
				fmt.Sprint(got[i].SampleRate, got[i].Functions) != fmt.Sprint(want[i].SampleRate, want[i].Functions) {
				t.Fatalf("testcase %d: %+v, reference %+v", i, got[i], want[i])
			}
			if err := refEncode(&ref, want[i]); err != nil {
				t.Fatal(err)
			}
		}
		var w bytes.Buffer
		if err := EncodeAll(&w, got); err != nil || !bytes.Equal(w.Bytes(), ref.Bytes()) {
			t.Fatalf("EncodeAll = %q, %v; reference %q", w.Bytes(), err, ref.Bytes())
		}
	})
}
