package core

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"uucs/internal/hostsim"
	"uucs/internal/testcase"
	"uucs/internal/textrec"
)

// codecSeeds are inputs on which the codec is easy to get subtly wrong:
// float spellings at the edges of %g, line endings, Unicode whitespace
// (U+00A0 and U+0085 split fields only through the Unicode path),
// comments, and the line-length cap.
func codecSeeds() []string {
	rec := func(body string) string {
		return "run t\ntask word\nuser 1\noutcome discomfort 1\n" + body + "events 0\nendrun\n"
	}
	long := strings.Repeat("x", textrec.MaxLine)
	return []string{
		"",
		rec("level cpu +Inf\nlevel disk -Inf\nlevel memory NaN\n"),
		rec("level cpu inf\nlastfive cpu -0 0 +0 -0.0 1e21\n"),
		rec("level cpu 1e21\nlevel memory 1e20\nlevel disk 1e-7\n"),
		rec("level cpu 0.0001\nlastfive disk 1e-05 123456789012345678901234 0x1p-2 1_0\n"),
		rec("level cpu 5e-324\nlevel disk 2.2250738585072e-308\nload 4.9e-324 1 0.5 1e-310\n"),
		"run t\r\ntask quake\r\nuser 2\r\noutcome exhausted 120\r\nevents 3\r\nendrun\r\n",
		"run t\r\r\ntask word\nuser 1\noutcome exhausted 1\nevents 0\nendrun",
		"run\u00a0t\ntask word\nuser 1\noutcome exhausted 1\nevents 0\nendrun\n",
		"run t\u0085x\ntask word\nuser 1\noutcome exhausted 1\nevents 0\nendrun\n",
		"run t\ntask\u00a0word\nuser 1\u0085\noutcome exhausted 1\nevents 0\nendrun\n",
		"run t\u00e9\ntask word\nuser 1\nprimary dis\u212a\nlevel CPU 1\noutcome exhausted 1\nevents 0\nendrun\n",
		"# header\n\n  # indented comment\nrun t\n#run u\ntask word\nuser 1\noutcome exhausted 1\nevents 0\nendrun\n",
		rec("shape ramp   2.0,120 \t x  y\n"),
		rec("shape\tstep 1\vparams\fhere\n"),
		rec("shape custom\n"),
		"run t\ntask word\nuser 1\noutcome exhausted 1\nevents 0\nendrun\n" + long + "x\n",
		"run " + long[:textrec.MaxLine-5] + "\ntask word\nuser 1\noutcome exhausted 1\nevents 0\nendrun\n",
		"run t\ntask word\nuser 99999999999999999999\nendrun\n",
		"run t\ntask word\noutcome maybe 1\nendrun\n",
		"run t\ntask wordy\nendrun\n",
		"run t\nlevel gpu 1\nendrun\n",
		"run t\nlastfive cpu 1 x\nendrun\n",
		"run t\nload 1 2 3\nendrun\n",
		"run t\ntask word\nuser 1\nendrun\n",
		"run t\nrun u\n",
		"task word\n",
		"run t\ntask word\n",
		"run t\nbogus 1\n",
		"run t u\n",
		"run t\nevents\n",
	}
}

// FuzzRunCodecDifferential holds AppendRuns/ParseRuns (and their stream
// wrappers) and TranscodeRuns to the reference codec in
// codec_ref_test.go: the same accept/reject decision and error text, the
// same decoded runs, the same encoded bytes with and without load
// samples, and the binary form of the reference's runs appended after an
// untouched prefix (or the prefix alone, on an error).
func FuzzRunCodecDifferential(f *testing.F) {
	for _, s := range codecSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		want, wantErr := refDecodeRuns(strings.NewReader(input))
		got, err := ParseRuns([]byte(input))
		viaReader, rerr := DecodeRuns(strings.NewReader(input))
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("ParseRuns error = %v, reference %v", err, wantErr)
		}
		if (rerr == nil) != (err == nil) || (rerr != nil && rerr.Error() != err.Error()) {
			t.Fatalf("DecodeRuns error = %v, ParseRuns %v", rerr, err)
		}
		dst := append(make([]byte, 0, 64), "prefix"...)
		batch, n, terr := TranscodeRuns(dst, []byte(input))
		if (terr == nil) != (wantErr == nil) || (terr != nil && terr.Error() != wantErr.Error()) {
			t.Fatalf("TranscodeRuns error = %v, reference %v", terr, wantErr)
		}
		if terr != nil {
			if string(batch) != "prefix" || string(dst) != "prefix" {
				t.Fatalf("failed TranscodeRuns returned %q, dst %q; want the prefix alone", batch, dst)
			}
		} else if ref := AppendRunsBinary([]byte("prefix"), want); !bytes.Equal(batch, ref) || n != len(want) {
			t.Fatalf("TranscodeRuns = %q (%d runs), want %q (%d runs)", batch, n, ref, len(want))
		}
		if err != nil {
			return
		}
		if d := diffRuns(got, want); d != "" {
			t.Fatalf("ParseRuns vs reference: %s", d)
		}
		if d := diffRuns(viaReader, want); d != "" {
			t.Fatalf("DecodeRuns vs reference: %s", d)
		}
		for _, withLoad := range []bool{false, true} {
			var ref bytes.Buffer
			if err := refEncodeRuns(&ref, want, withLoad); err != nil {
				t.Fatal(err)
			}
			prefix := []byte("prefix")
			enc := AppendRuns(prefix, got, withLoad)
			if !bytes.Equal(enc[len(prefix):], ref.Bytes()) || string(enc[:len(prefix)]) != "prefix" {
				t.Fatalf("AppendRuns(withLoad=%v) = %q, reference %q", withLoad, enc, ref.Bytes())
			}
			var w bytes.Buffer
			if err := EncodeRuns(&w, got, withLoad); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(w.Bytes(), ref.Bytes()) {
				t.Fatalf("EncodeRuns(withLoad=%v) = %q, reference %q", withLoad, w.Bytes(), ref.Bytes())
			}
		}
	})
}

// diffRuns describes the first difference between two run lists, or
// returns "". Floats compare by bit pattern, so NaN equals NaN and -0
// differs from +0.
func diffRuns(a, b []*Run) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d runs vs %d", len(a), len(b))
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	sameSlice := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if !same(x[i], y[i]) {
				return false
			}
		}
		return true
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.TestcaseID != y.TestcaseID || x.Shape != y.Shape || x.Params != y.Params ||
			x.Task != y.Task || x.UserID != y.UserID || x.Blank != y.Blank ||
			x.PrimaryResource != y.PrimaryResource || x.Terminated != y.Terminated ||
			!same(x.Offset, y.Offset) || x.Events != y.Events ||
			!same(x.WorstLatency, y.WorstLatency) || len(x.Trace) != len(y.Trace) {
			return fmt.Sprintf("run %d: scalar fields differ:\n%+v\n%+v", i, *x, *y)
		}
		if (x.Levels == nil) != (y.Levels == nil) || len(x.Levels) != len(y.Levels) {
			return fmt.Sprintf("run %d: levels %v vs %v", i, x.Levels, y.Levels)
		}
		for res, v := range x.Levels {
			if w, ok := y.Levels[res]; !ok || !same(v, w) {
				return fmt.Sprintf("run %d: level %s %v vs %v", i, res, v, w)
			}
		}
		if (x.LastFive == nil) != (y.LastFive == nil) || len(x.LastFive) != len(y.LastFive) {
			return fmt.Sprintf("run %d: lastfive %v vs %v", i, x.LastFive, y.LastFive)
		}
		for res, v := range x.LastFive {
			if w, ok := y.LastFive[res]; !ok || !sameSlice(v, w) {
				return fmt.Sprintf("run %d: lastfive %s %v vs %v", i, res, v, w)
			}
		}
		if (x.Load == nil) != (y.Load == nil) || len(x.Load) != len(y.Load) {
			return fmt.Sprintf("run %d: %d load samples vs %d", i, len(x.Load), len(y.Load))
		}
		for j := range x.Load {
			l, m := x.Load[j], y.Load[j]
			if !sameSlice([]float64{l.Time, l.CPU, l.MemFrac, l.DiskQ}, []float64{m.Time, m.CPU, m.MemFrac, m.DiskQ}) {
				return fmt.Sprintf("run %d: load sample %d %+v vs %+v", i, j, l, m)
			}
		}
	}
	return ""
}

// TestRunCodecSpecialFloats pins the encoding of values no decoded seed
// reaches directly, against the reference encoder.
func TestRunCodecSpecialFloats(t *testing.T) {
	vals := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), 1e21, 1e-7,
		math.SmallestNonzeroFloat64, 0.1 + 0.2, math.MaxFloat64, 123456789, 1e20}
	r := &Run{
		TestcaseID: "t", Task: testcase.Word, UserID: -7, Shape: "ramp", Params: "a b",
		Terminated: Discomfort, Offset: vals[0], PrimaryResource: testcase.CPU,
		Levels:   map[testcase.Resource]float64{testcase.CPU: vals[2], testcase.Disk: vals[3], "gpu": 1},
		LastFive: map[testcase.Resource][]float64{testcase.Memory: vals, testcase.Disk: {}},
		Events:   -1,
	}
	for _, v := range vals {
		r.Load = append(r.Load, hostsim.Load{Time: v, CPU: -v, MemFrac: v / 3, DiskQ: v * 7})
	}
	for _, withLoad := range []bool{false, true} {
		var ref bytes.Buffer
		if err := refEncodeRuns(&ref, []*Run{r, r}, withLoad); err != nil {
			t.Fatal(err)
		}
		if got := AppendRuns(nil, []*Run{r, r}, withLoad); !bytes.Equal(got, ref.Bytes()) {
			t.Errorf("withLoad=%v:\n got %q\nwant %q", withLoad, got, ref.Bytes())
		}
	}
}

// TestParseRunsLineCap pins the line-length boundary on both codecs: a
// line of MaxLine-1 bytes parses, one of exactly MaxLine bytes fails
// with the bufio.Scanner error, with or without a final newline.
func TestParseRunsLineCap(t *testing.T) {
	body := "task word\nuser 1\noutcome exhausted 1\nevents 0\nendrun\n"
	id := strings.Repeat("x", textrec.MaxLine-1-len("run "))
	in := "run " + id + "\n" + body
	runs, err := ParseRuns([]byte(in))
	if err != nil || len(runs) != 1 || runs[0].TestcaseID != id {
		t.Fatalf("longest line rejected: %v", err)
	}
	if _, err := refDecodeRuns(strings.NewReader(in)); err != nil {
		t.Fatalf("reference rejects the longest line: %v", err)
	}
	for _, tail := range []string{"", "\n"} {
		in := "run t\n" + body + "#" + strings.Repeat("x", textrec.MaxLine-1) + tail
		if _, err := ParseRuns([]byte(in)); !errors.Is(err, bufio.ErrTooLong) {
			t.Errorf("tail %q: err = %v, want %v", tail, err, bufio.ErrTooLong)
		}
		if _, err := refDecodeRuns(strings.NewReader(in)); !errors.Is(err, bufio.ErrTooLong) {
			t.Errorf("tail %q: reference err = %v, want %v", tail, err, bufio.ErrTooLong)
		}
	}
}

// TestParseRunsCopiesInput overwrites the input after parsing: no
// decoded string may alias it (the server parses straight out of a
// connection's reused read buffer and out of whole journal segments).
func TestParseRunsCopiesInput(t *testing.T) {
	in := []byte("run tc-17\ntask ie\nuser 4\nshape custom-shape p1  p2\noutcome discomfort 3.5\n" +
		"primary disk\nlevel disk 2\nlastfive disk 1 2 3 4 5\nevents 9\nload 1 0.5 0.25 3\nendrun\n" +
		"run solo\ntask quake\nuser 5\nshape onlyname single\noutcome exhausted 120\nevents 0\nendrun\n")
	runs, err := ParseRuns(in)
	if err != nil {
		t.Fatal(err)
	}
	want := AppendRuns(nil, runs, true)
	for i := range in {
		in[i] = '!'
	}
	if got := AppendRuns(nil, runs, true); !bytes.Equal(got, want) {
		t.Fatalf("runs changed with their input:\n got %q\nwant %q", got, want)
	}
}

func benchRuns(n int) []*Run {
	runs := make([]*Run, n)
	for i := range runs {
		runs[i] = &Run{
			TestcaseID: fmt.Sprintf("tc-%d", i), Task: testcase.Tasks()[i%4], UserID: i,
			Shape: testcase.ShapeRamp, Params: "2.0,120", Terminated: Discomfort,
			Offset: 41.7 + float64(i)/7, PrimaryResource: testcase.CPU,
			Levels:   map[testcase.Resource]float64{testcase.CPU: 1.37 + float64(i)/11},
			LastFive: map[testcase.Resource][]float64{testcase.CPU: {1.1, 1.2, 1.3, 1.35, 1.37}},
			Events:   200 + i,
		}
	}
	return runs
}

var (
	encodeSink []byte
	decodeSink []*Run
)

// BenchmarkEncodeRuns encodes a 3-run upload batch into a warm buffer.
func BenchmarkEncodeRuns(b *testing.B) {
	runs := benchRuns(3)
	buf := AppendRuns(nil, runs, false)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendRuns(buf[:0], runs, false)
	}
	encodeSink = buf
}

// BenchmarkDecodeRuns parses one 3-run upload batch.
func BenchmarkDecodeRuns(b *testing.B) {
	payload := AppendRuns(nil, benchRuns(3), false)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runs, err := ParseRuns(payload)
		if err != nil {
			b.Fatal(err)
		}
		decodeSink = runs
	}
}
