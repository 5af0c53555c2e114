package testcase

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"strings"
	"testing"

	"uucs/internal/stats"
	"uucs/internal/textrec"
)

// FuzzTestcaseBinaryDifferential holds the binary testcase codec to the
// text codec. For every input Parse accepts, the testcases go through
// AppendBinary and ParseBinary and render the same text through
// Append. The input is also fed to ParseBinary as raw bytes: it must
// never panic, never allocate more than the input can describe, and
// accept only testcases that Validate and the text format accept.
func FuzzTestcaseBinaryDifferential(f *testing.F) {
	for _, s := range binarySeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		checkParseBinary(t, []byte(input))
		tcs, err := Parse([]byte(input))
		if err != nil {
			return
		}
		enc := []byte("prefix")
		for _, tc := range tcs {
			if enc, err = AppendBinary(enc, tc); err != nil {
				t.Fatalf("AppendBinary refuses a testcase Parse returned: %v", err)
			}
		}
		got, err := ParseBinary(enc[len("prefix"):])
		if err != nil {
			t.Fatalf("binary encoding of parsed testcases does not decode: %v", err)
		}
		var want, back bytes.Buffer
		if err := EncodeAll(&want, tcs); err != nil {
			t.Fatal(err)
		}
		if err := EncodeAll(&back, got); err != nil || !bytes.Equal(back.Bytes(), want.Bytes()) {
			t.Fatalf("text after the binary round trip = %q, %v\nwant %q", back.Bytes(), err, want.Bytes())
		}
	})
}

// checkParseBinary decodes data as a binary batch. The decode must
// allocate no more than a fixed multiple of data's length, and every
// testcase it returns must validate, re-encode, and come back from its
// own text as the same text (a missing shape reading back as
// ShapeBlank).
func checkParseBinary(t *testing.T, data []byte) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tcs, err := ParseBinary(data)
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+64<<10); got > limit {
		t.Fatalf("decoding %d bytes allocated %d bytes (limit %d)", len(data), got, limit)
	}
	if err != nil {
		return
	}
	for _, tc := range tcs {
		if err := tc.Validate(); err != nil {
			t.Fatalf("ParseBinary accepted an invalid testcase: %v", err)
		}
		if _, err := AppendBinary(nil, tc); err != nil {
			t.Fatalf("ParseBinary accepted a testcase AppendBinary refuses: %v", err)
		}
		text, err := Append(nil, tc)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Parse(text)
		if err != nil || len(back) != 1 {
			t.Fatalf("ParseBinary accepted a testcase whose text %q Parse refuses: %d testcases, %v", text, len(back), err)
		}
		if back[0].ID != tc.ID || back[0].Params != tc.Params {
			t.Fatalf("text round trip changed id or params: %q %q, want %q %q", back[0].ID, back[0].Params, tc.ID, tc.Params)
		}
		if tc.Shape == "" {
			blank := *tc
			blank.Shape = ShapeBlank
			tc = &blank
		}
		if again, _ := Append(nil, back[0]); !bytes.Equal(again, mustAppend(t, tc)) {
			t.Fatalf("text round trip of a decoded testcase: %q, want %q", again, mustAppend(t, tc))
		}
	}
}

func mustAppend(t *testing.T, tc *Testcase) []byte {
	t.Helper()
	b, err := Append(nil, tc)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// generated returns n testcases of the default generator's mix.
func generated(tb testing.TB, prefix string, n int, seed uint64) []*Testcase {
	tb.Helper()
	cfg := DefaultGeneratorConfig()
	cfg.Count = n
	tcs, err := Generate(prefix, cfg, stats.NewStream(seed))
	if err != nil {
		tb.Fatal(err)
	}
	return tcs
}

// rawBinary writes one testcase in the binary layout without the
// checks AppendBinary makes, for the inputs it would refuse: codes and
// counts are written as given, and samples are taken from fns in code
// order.
func rawBinary(dst []byte, id, shape, params string, rate float64, codes []byte, fns ...[]float64) []byte {
	for _, s := range []string{id, shape, params} {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
	}
	dst = append(append(append(dst, id...), shape...), params...)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(rate))
	dst = append(dst, byte(len(codes)))
	for i, c := range codes {
		dst = append(dst, c)
		dst = binary.AppendUvarint(dst, uint64(len(fns[i])))
	}
	for _, vs := range fns {
		for _, v := range vs {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return dst
}

// binarySeeds is the seed corpus of the binary testcase fuzz target:
// the text codec's seeds that fit a line, generated testcases in both encodings and
// with a trailing byte, odd floats, a testcase with no shape, and
// encodings AppendBinary would refuse.
func binarySeeds(tb testing.TB) []string {
	gen := generated(tb, "g", 4, 1)
	odd := New("odd", 0.5)
	odd.Shape, odd.Params = "custom", "a b c"
	odd.Functions[Memory] = ExerciseFunction{Rate: 0.5, Values: []float64{math.Copysign(0, -1), 5e-324, math.NaN()}}
	odd.Functions[Disk] = ExerciseFunction{Rate: 0.5, Values: []float64{math.Inf(1), 1e21}}
	bare := &Testcase{ID: "bare", SampleRate: 1, Functions: map[Resource]ExerciseFunction{CPU: {Rate: 1}}}
	var text, enc []byte
	var err error
	for _, tc := range append(gen, odd, bare) {
		if text, err = Append(text, tc); err != nil {
			tb.Fatal(err)
		}
		if enc, err = AppendBinary(enc, tc); err != nil {
			tb.Fatal(err)
		}
	}
	var seeds []string
	for _, s := range codecSeeds() {
		if len(s) < textrec.MaxLine { // the over-long line only slows the mutator
			seeds = append(seeds, s)
		}
	}
	one := []float64{1}
	return append(seeds,
		string(text),
		string(enc),
		string(append(enc[:len(enc):len(enc)], 0)),
		string(rawBinary(nil, "a b", "ramp", "", 1, nil)),                          // id with a space
		string(rawBinary(nil, "a", "", "1,2", 1, nil)),                             // params without a shape
		string(rawBinary(nil, "a", "ramp", " 1", 1, nil)),                          // params with a leading space
		string(rawBinary(nil, "a", "ramp", "", 1, []byte{0, 0}, one, one)),         // a resource twice
		string(rawBinary(nil, "a", "ramp", "", 1, []byte{3}, one)),                 // an unknown resource
		string(rawBinary(nil, "a", "ramp", "", 1, []byte{1}, []float64{2})),        // memory contention over 1
		string(rawBinary(nil, "a", "ramp", "", -1, nil)),                           // a negative rate
		string(binary.AppendUvarint(binary.AppendUvarint([]byte{1, 0}, 0), 1<<40)), // a length no input holds
	)
}

// TestParseBinaryRejects feeds ParseBinary batches with one bad field
// each; every one must fail, naming what is wrong and which testcase.
func TestParseBinaryRejects(t *testing.T) {
	good, err := AppendBinary(nil, New("ok", 1))
	if err != nil {
		t.Fatal(err)
	}
	one := []float64{1}
	for _, tc := range []struct {
		name, want string
		data       []byte
	}{
		{"truncated rate", "truncated sample rate (testcase 2)", append(good, rawBinary(nil, "a", "", "", 1, nil)[:6]...)},
		{"sample count past the input", "sample count 9 exceeds", rawBinary(nil, "a", "", "", 1, []byte{0}, make([]float64, 9))[:30]},
		{"id length past the input", "id length 200 exceeds", []byte{200, 1, 0, 0}},
		{"too many functions", "4 functions", rawBinary(nil, "a", "", "", 1, []byte{0, 1, 2, 2}, one, one, one, one)},
		{"resource out of order", "resource code 0 out of order", rawBinary(nil, "a", "", "", 1, []byte{1, 0}, one, one)},
		{"id with a space", "id holds whitespace", rawBinary(nil, "a b", "", "", 1, nil)},
		{"params without a shape", "without a shape", rawBinary(nil, "a", "", "x", 1, nil)},
		{"params spaced twice", "single spaces", rawBinary(nil, "a", "ramp", "1  2", 1, nil)},
		{"invalid testcase", "would thrash", rawBinary(nil, "a", "", "", 1, []byte{1}, []float64{1.5})},
	} {
		_, err := ParseBinary(tc.data)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to mention %q", tc.name, err, tc.want)
		}
	}
}

// TestAppendBinaryRefusesWhatTextCannotState: a testcase whose text
// Parse would read back differently is refused before anything is
// written, so a server never journals a testcase it could not serve as
// the same text.
func TestAppendBinaryRefusesWhatTextCannotState(t *testing.T) {
	for name, tc := range map[string]*Testcase{
		"id with a space":        {ID: "a b", SampleRate: 1},
		"shape with a tab":       {ID: "a", SampleRate: 1, Shape: "ra\tmp"},
		"params without a shape": {ID: "a", SampleRate: 1, Params: "1,2"},
		"params trailing space":  {ID: "a", SampleRate: 1, Shape: ShapeRamp, Params: "1,2 "},
		"invalid":                {ID: "", SampleRate: 1},
	} {
		dst := []byte("keep")
		if got, err := AppendBinary(dst, tc); err == nil || string(got) != "keep" {
			t.Errorf("%s: AppendBinary = %q, %v; want an error and dst unchanged", name, got, err)
		}
	}
}

// TestParseBinaryCopiesInput: decoded testcases keep nothing of the
// input, so a journal's file buffer can be reused or dropped.
func TestParseBinaryCopiesInput(t *testing.T) {
	var data []byte
	var err error
	for _, tc := range generated(t, "c", 3, 2) {
		if data, err = AppendBinary(data, tc); err != nil {
			t.Fatal(err)
		}
	}
	tcs, err := ParseBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	want := mustEncodeAll(t, tcs)
	for i := range data {
		data[i] = 0xff
	}
	if got := mustEncodeAll(t, tcs); got != want {
		t.Fatal("decoded testcases changed with their input")
	}
}

func mustEncodeAll(t *testing.T, tcs []*Testcase) string {
	t.Helper()
	var b strings.Builder
	if err := EncodeAll(&b, tcs); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestAppendBinaryAllocCeiling pins the encoder's warm path: appending
// into a buffer that already has the room allocates nothing. The server
// encodes every testcase it journals or snapshots this way.
func TestAppendBinaryAllocCeiling(t *testing.T) {
	gen := generated(t, "a", 8, 3)
	var buf []byte
	var err error
	for _, tc := range gen {
		if buf, err = AppendBinary(buf, tc); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		buf = buf[:0]
		for _, tc := range gen {
			buf, _ = AppendBinary(buf, tc)
		}
	})
	if avg != 0 {
		t.Errorf("AppendBinary into a warm buffer allocates %.1f per 8 testcases, want 0", avg)
	}
}

// BenchmarkParseBinary decodes 100 generated testcases from their
// binary form; compare BenchmarkParseText.
func BenchmarkParseBinary(b *testing.B) {
	benchDecode(b, AppendBinary, ParseBinary)
}

// BenchmarkParseText decodes the same testcases from their text.
func BenchmarkParseText(b *testing.B) {
	benchDecode(b, Append, Parse)
}

func benchDecode(b *testing.B, enc func([]byte, *Testcase) ([]byte, error), dec func([]byte) ([]*Testcase, error)) {
	var data []byte
	var err error
	for _, tc := range generated(b, "b", 100, 4) {
		if data, err = enc(data, tc); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dec(data); err != nil {
			b.Fatal(err)
		}
	}
}
