package testcase

import (
	"fmt"
	"io"
	"strconv"

	"uucs/internal/textrec"
)

// The wire/storage format is line-oriented text, matching the paper's
// design of text-file testcase stores that a human can inspect and a
// disconnected client can sync:
//
//	testcase <id>
//	rate <hz>
//	shape <family> <params>
//	function <resource> <v0> <v1> ... <vn>
//	end
//
// Blank lines and lines starting with '#' are ignored. A stream may hold
// any number of testcases.

// Append validates tc and appends its text encoding to dst. On error
// dst comes back unchanged.
func Append(dst []byte, tc *Testcase) ([]byte, error) {
	if err := tc.Validate(); err != nil {
		return dst, err
	}
	dst = append(dst, "testcase "...)
	dst = append(dst, tc.ID...)
	dst = append(dst, "\nrate "...)
	dst = strconv.AppendFloat(dst, tc.SampleRate, 'g', -1, 64)
	dst = append(dst, '\n')
	if tc.Shape != "" {
		dst = append(dst, "shape "...)
		dst = append(dst, tc.Shape...)
		if tc.Params != "" {
			dst = append(dst, ' ')
			dst = append(dst, tc.Params...)
		}
		dst = append(dst, '\n')
	}
	for _, r := range Resources() {
		f, ok := tc.Functions[r]
		if !ok {
			continue
		}
		dst = append(dst, "function "...)
		dst = append(dst, r...)
		for _, v := range f.Values {
			dst = append(dst, ' ')
			dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
		}
		dst = append(dst, '\n')
	}
	return append(dst, "end\n"...), nil
}

// appendNamed is Append with the testcase id on its error.
func appendNamed(dst []byte, tc *Testcase) ([]byte, error) {
	dst, err := Append(dst, tc)
	if err != nil {
		err = fmt.Errorf("testcase %s: %w", tc.ID, err)
	}
	return dst, err
}

// Encode writes the testcase to w in the text format.
func Encode(w io.Writer, tc *Testcase) error {
	return textrec.Write(w, []*Testcase{tc}, Append)
}

// EncodeAll writes every testcase to w. It stops at the first invalid
// testcase, possibly after writing part of the stream.
func EncodeAll(w io.Writer, tcs []*Testcase) error {
	return textrec.Write(w, tcs, appendNamed)
}

// EncodeString renders one testcase as a string.
func EncodeString(tc *Testcase) (string, error) {
	b, err := Append(nil, tc)
	return string(b), err
}

// DecodeAll reads r to EOF and parses every testcase; see Parse.
func DecodeAll(r io.Reader) ([]*Testcase, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return Parse(data)
}

// Parse parses every testcase in data. The testcases never refer to
// data: every decoded string is a copy.
func Parse(data []byte) ([]*Testcase, error) {
	var (
		out  []*Testcase
		cur  *Testcase
		line int
		fbuf [8][]byte
		f    = fbuf[:0]
		text []byte
		err  error
	)
	for len(data) > 0 {
		if text, data, err = textrec.NextLine(data); err != nil {
			return nil, err
		}
		line++
		if f = textrec.Fields(f, text); len(f) == 0 {
			continue
		}
		switch string(f[0]) {
		case "testcase":
			if cur != nil {
				return nil, fmt.Errorf("testcase: line %d: nested testcase without end", line)
			}
			if len(f) != 2 {
				return nil, fmt.Errorf("testcase: line %d: want 'testcase <id>'", line)
			}
			cur = New(string(f[1]), 0)
			cur.SampleRate = 0
		case "rate":
			if cur == nil {
				return nil, fmt.Errorf("testcase: line %d: rate outside testcase", line)
			}
			if len(f) != 2 {
				return nil, fmt.Errorf("testcase: line %d: want 'rate <hz>'", line)
			}
			v, err := strconv.ParseFloat(string(f[1]), 64)
			if err != nil {
				return nil, fmt.Errorf("testcase: line %d: bad rate: %w", line, err)
			}
			cur.SampleRate = v
		case "shape":
			if cur == nil {
				return nil, fmt.Errorf("testcase: line %d: shape outside testcase", line)
			}
			if len(f) < 2 {
				return nil, fmt.Errorf("testcase: line %d: want 'shape <family> [params]'", line)
			}
			cur.Shape = Shape(f[1])
			if len(f) > 2 {
				cur.Params = textrec.Join(f[2:])
			}
		case "function":
			if cur == nil {
				return nil, fmt.Errorf("testcase: line %d: function outside testcase", line)
			}
			if len(f) < 2 {
				return nil, fmt.Errorf("testcase: line %d: want 'function <resource> <values...>'", line)
			}
			res, err := ParseResource(string(f[1]))
			if err != nil {
				return nil, fmt.Errorf("testcase: line %d: %w", line, err)
			}
			vals := make([]float64, 0, len(f)-2)
			for _, s := range f[2:] {
				v, err := strconv.ParseFloat(string(s), 64)
				if err != nil {
					return nil, fmt.Errorf("testcase: line %d: bad sample %q: %w", line, s, err)
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
			return nil, fmt.Errorf("testcase: line %d: unknown directive %q", line, f[0])
		}
	}
	if cur != nil {
		return nil, fmt.Errorf("testcase: unterminated testcase %s at EOF", cur.ID)
	}
	return out, nil
}

// DecodeString parses exactly one testcase from s.
func DecodeString(s string) (*Testcase, error) {
	tcs, err := Parse([]byte(s))
	if err != nil {
		return nil, err
	}
	if len(tcs) != 1 {
		return nil, fmt.Errorf("testcase: want exactly 1 testcase, got %d", len(tcs))
	}
	return tcs[0], nil
}
