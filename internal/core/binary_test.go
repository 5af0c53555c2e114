package core

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"strings"
	"testing"

	"uucs/internal/hostsim"
)

// FuzzRunRecordsDifferential holds the binary run codec to the text
// codec. For every input ParseRuns accepts, the binary round trip of its
// runs gives the same runs, and those re-encode to the same text with
// and without load samples. The input is also fed to ParseRunsBinary as
// raw bytes: it must return an error or runs, never panic, and never
// allocate more than the input can describe.
func FuzzRunRecordsDifferential(f *testing.F) {
	for _, s := range runRecordSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		checkBinaryDecodeBounded(t, []byte(input))
		runs, err := ParseRuns([]byte(input))
		if err != nil {
			return
		}
		enc := AppendRunsBinary([]byte("prefix"), runs)
		got, err := ParseRunsBinary(enc[len("prefix"):])
		if err != nil {
			t.Fatalf("binary encoding of accepted runs does not decode: %v", err)
		}
		if d := diffRuns(got, runs); d != "" {
			t.Fatalf("binary round trip: %s", d)
		}
		for _, withLoad := range []bool{false, true} {
			if a, b := AppendRuns(nil, got, withLoad), AppendRuns(nil, runs, withLoad); !bytes.Equal(a, b) {
				t.Fatalf("AppendRuns(withLoad=%v) after the binary round trip:\n got %q\nwant %q", withLoad, a, b)
			}
		}
		// A prefix of a batch is never a batch.
		for cut := 0; cut < len(enc)-len("prefix"); cut += 1 + cut/4 {
			if _, err := ParseRunsBinary(enc[len("prefix") : len(enc)-1-cut]); err == nil {
				t.Fatalf("batch cut %d bytes short decoded", cut+1)
			}
		}
	})
}

// runRecordSeeds is the seed corpus of the binary run record fuzz
// targets: the text codec's seeds, a batch with load samples and odd
// metadata in both encodings and with a trailing byte, and a run count
// no input can hold.
func runRecordSeeds() []string {
	seeds := codecSeeds()
	load := benchRuns(3)
	load[1].Load = []hostsim.Load{{Time: 0, CPU: 0.5, MemFrac: 0.25, DiskQ: 2}, {Time: 1, CPU: 1, MemFrac: -0.0, DiskQ: 1e21}}
	load[2].Shape, load[2].Params = "custom", "a b  c"
	return append(seeds,
		string(AppendRuns(nil, load, true)),
		string(AppendRunsBinary(nil, load)),
		string(append(AppendRunsBinary(nil, load), 0)),
		string(binary.AppendUvarint(nil, 1<<40)))
}

// FuzzCountRunsBinaryDifferential holds the validation walk replay
// runs on every binary batch to the decoder: for any input, and for
// the binary encoding of any text input ParseRuns accepts (and each
// prefix of it), CountRunsBinary accepts exactly when ParseRunsBinary
// does, with the same run count, and otherwise fails with the same
// error text.
func FuzzCountRunsBinaryDifferential(f *testing.F) {
	for _, s := range runRecordSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		inputs := [][]byte{[]byte(input)}
		if runs, err := ParseRuns([]byte(input)); err == nil {
			enc := AppendRunsBinary(nil, runs)
			inputs = append(inputs, enc)
			for cut := 1; cut < len(enc); cut += 1 + cut/4 {
				inputs = append(inputs, enc[:len(enc)-cut])
			}
		}
		for _, data := range inputs {
			runs, perr := ParseRunsBinary(data)
			n, cerr := CountRunsBinary(data)
			switch {
			case (perr == nil) != (cerr == nil):
				t.Fatalf("%q: ParseRunsBinary error %v, CountRunsBinary error %v", data, perr, cerr)
			case perr != nil && perr.Error() != cerr.Error():
				t.Fatalf("%q: error texts differ:\nParseRunsBinary %v\nCountRunsBinary %v", data, perr, cerr)
			case perr == nil && n != len(runs):
				t.Fatalf("%q: CountRunsBinary counts %d runs, ParseRunsBinary decodes %d", data, n, len(runs))
			}
		}
	})
}

// FuzzRunWalkDifferential holds the fused walk to the method-per-field
// reader it replaced (binary_ref_test.go): on any input, and on the
// binary encoding of any text input ParseRuns accepts, with prefixes of
// it and, up to 4 KiB, each one-byte corruption of it, CountRunsBinary
// and ParseRunsBinary accept exactly what the old reader accepts, with
// the same run count, the same runs and the same error text. The two
// share one walk, so their agreement with each other
// (FuzzCountRunsBinaryDifferential) cannot catch a bug in it; this
// target can.
func FuzzRunWalkDifferential(f *testing.F) {
	for _, s := range runRecordSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		checkRunWalk(t, []byte(input))
		runs, err := ParseRuns([]byte(input))
		if err != nil {
			return
		}
		enc := AppendRunsBinary(nil, runs)
		checkRunWalk(t, enc)
		for cut := 1; cut < len(enc); cut += 1 + cut/4 {
			checkRunWalk(t, enc[:len(enc)-cut])
		}
		if len(enc) > 4<<10 {
			return // a seed's multi-megabyte batch: its prefixes suffice
		}
		b := bytes.Clone(enc)
		for at := range enc {
			for _, v := range []byte{0, 1, 0x7f, 0x80, 0xff, enc[at] + 1} {
				b[at] = v
				checkRunWalk(t, b)
			}
			b[at] = enc[at]
		}
	})
}

// checkRunWalk fails t unless CountRunsBinary and ParseRunsBinary agree
// with the reference reader on data.
func checkRunWalk(t *testing.T, data []byte) {
	t.Helper()
	want, werr := refParseRunsBinary(data)
	wantN, wcerr := refCountRunsBinary(data)
	if (werr == nil) != (wcerr == nil) || (werr != nil && werr.Error() != wcerr.Error()) {
		t.Fatalf("%q: the reference reader disagrees with itself: %v, %v", data, werr, wcerr)
	}
	got, perr := ParseRunsBinary(data)
	n, cerr := CountRunsBinary(data)
	for _, e := range []struct {
		name string
		err  error
	}{{"ParseRunsBinary", perr}, {"CountRunsBinary", cerr}} {
		switch {
		case (e.err == nil) != (werr == nil):
			t.Fatalf("%q: %s error %v, reference %v", data, e.name, e.err, werr)
		case e.err != nil && e.err.Error() != werr.Error():
			t.Fatalf("%q: error texts differ:\n%s %v\nreference %v", data, e.name, e.err, werr)
		}
	}
	if werr != nil {
		return
	}
	if n != wantN {
		t.Fatalf("%q: CountRunsBinary counts %d runs, reference %d", data, n, wantN)
	}
	if d := diffRuns(got, want); d != "" {
		t.Fatalf("%q: ParseRunsBinary against the reference: %s", data, d)
	}
}

// TestCountRunsBinaryAllocs pins the validation walk at zero
// allocations on a valid batch: replay runs it on every binary run
// record it loads.
func TestCountRunsBinaryAllocs(t *testing.T) {
	runs := benchRuns(3)
	runs[1].Load = []hostsim.Load{{Time: 1, CPU: 0.5, MemFrac: 0.25, DiskQ: 2}}
	data := AppendRunsBinary(nil, runs)
	avg := testing.AllocsPerRun(200, func() {
		if n, err := CountRunsBinary(data); err != nil || n != 3 {
			t.Fatalf("CountRunsBinary = %d, %v", n, err)
		}
	})
	if avg != 0 {
		t.Errorf("CountRunsBinary allocates %.2f/op on a valid 3-run batch, want 0", avg)
	}
}

// checkBinaryDecodeBounded decodes data as a binary batch and fails if
// the decode allocated more than a fixed multiple of its length: every
// count is checked against the bytes left before anything is made for
// it, so a claimed count cannot cost memory the input does not carry.
func checkBinaryDecodeBounded(t *testing.T, data []byte) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runs, err := ParseRunsBinary(data)
	runtime.ReadMemStats(&after)
	if err == nil && len(data) == 0 {
		t.Fatalf("empty input decoded to %d runs", len(runs))
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+64<<10); got > limit {
		t.Fatalf("decoding %d bytes allocated %d bytes (limit %d)", len(data), got, limit)
	}
}

// TestParseRunsBinaryRejects feeds ParseRunsBinary batches with one bad
// field each; every one must fail, naming what is wrong.
func TestParseRunsBinaryRejects(t *testing.T) {
	good := AppendRunsBinary(nil, benchRuns(1))
	// Field offsets in good: 3 length bytes, "tc-0", "2.0,120", "ramp".
	strs := 1 + 3 + len("tc-0") + len("2.0,120") + len("ramp")
	set := func(at int, v byte) []byte {
		b := append([]byte(nil), good...)
		b[at] = v
		return b
	}
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "bad run count"},
		{"count beyond input", binary.AppendUvarint(nil, 1<<40), "run count"},
		{"count too high", set(0, 2), "(run 2 of 2)"},
		{"id length beyond input", set(1, 0x7f), "id length"},
		{"task code 0", set(strs, 0), "unknown task code 0"},
		{"task code 9", set(strs, 9), "unknown task code 9"},
		{"outcome code", set(strs+2, 3), "unknown outcome code 3"},
		{"primary code", set(strs+11, 4), "unknown primary resource code 4"},
		{"level mask", set(strs+12, 0x08), "bad level mask"},
		{"trailing byte", append(append([]byte(nil), good...), 0), "trailing bytes"},
		{"truncated offset", good[:strs+6], "truncated float"},
		{"truncated load count", good[:len(good)-1], "bad load sample count"},
	} {
		_, err := ParseRunsBinary(tc.data)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to mention %q", tc.name, err, tc.want)
		}
	}
}

// TestParseRunsBinaryCopiesInput overwrites the input after decoding:
// no decoded string may alias it (replay decodes out of whole journal
// files).
func TestParseRunsBinaryCopiesInput(t *testing.T) {
	runs, err := ParseRuns([]byte("run tc-17\ntask ie\nuser 4\nshape custom-shape p1  p2\noutcome discomfort 3.5\n" +
		"primary disk\nlevel disk 2\nlastfive disk 1 2 3 4 5\nevents 9\nload 1 0.5 0.25 3\nendrun\n"))
	if err != nil {
		t.Fatal(err)
	}
	in := AppendRunsBinary(nil, runs)
	got, err := ParseRunsBinary(in)
	if err != nil {
		t.Fatal(err)
	}
	want := AppendRuns(nil, runs, true)
	for i := range in {
		in[i] = '!'
	}
	if enc := AppendRuns(nil, got, true); !bytes.Equal(enc, want) {
		t.Fatalf("runs changed with their input:\n got %q\nwant %q", enc, want)
	}
}

// chunkRuns cuts runs with a BinaryRunChunker at maxBytes, handing them
// to Add in pieces of at most piece runs, and returns the chunks.
func chunkRuns(runs []*Run, maxBytes, piece int) ([][]byte, error) {
	var chunks [][]byte
	c := NewBinaryRunChunker(maxBytes, func(chunk []byte) error {
		chunks = append(chunks, bytes.Clone(chunk))
		return nil
	})
	for len(runs) > 0 {
		k := min(piece, len(runs))
		if err := c.Add(runs[:k]); err != nil {
			return nil, err
		}
		runs = runs[k:]
	}
	return chunks, c.Close()
}

// TestBinaryRunChunks cuts one batch at several sizes: every chunk
// decodes, stays within the bound unless it holds a single run, and the
// chunks together are the runs in order. Handing the runs to the
// chunker in smaller pieces cuts the same chunks.
func TestBinaryRunChunks(t *testing.T) {
	runs := benchRuns(40)
	whole := len(AppendRunsBinary(nil, runs))
	for _, max := range []int{1, 100, 500, whole - 1, whole, 1 << 20} {
		chunks, err := chunkRuns(runs, max, len(runs))
		if err != nil {
			t.Fatalf("max %d: %v", max, err)
		}
		var got []*Run
		for _, chunk := range chunks {
			part, err := ParseRunsBinary(chunk)
			if err != nil {
				t.Fatalf("max %d: %v", max, err)
			}
			if len(chunk) > max && len(part) > 1 {
				t.Fatalf("max %d: chunk of %d runs is %d bytes", max, len(part), len(chunk))
			}
			got = append(got, part...)
		}
		if d := diffRuns(got, runs); d != "" {
			t.Fatalf("max %d: %s", max, d)
		}
		if max >= whole && len(chunks) != 1 {
			t.Errorf("max %d: %d chunks, want 1", max, len(chunks))
		}
		if max == 1 && len(chunks) != len(runs) {
			t.Errorf("max 1: %d chunks, want one per run", len(chunks))
		}
		for _, piece := range []int{1, 3, 7} {
			split, err := chunkRuns(runs, max, piece)
			if err != nil {
				t.Fatalf("max %d, pieces of %d: %v", max, piece, err)
			}
			if !slices.EqualFunc(split, chunks, bytes.Equal) {
				t.Errorf("max %d: pieces of %d runs cut %d chunks differently from one Add (%d)", max, piece, len(split), len(chunks))
			}
		}
	}
	if chunks, err := chunkRuns(nil, 1, 1); err != nil || len(chunks) != 0 {
		t.Fatalf("no runs: %d chunks, %v", len(chunks), err)
	}
}

// TestAppendRunsBinaryAllocCeiling pins the encoder's warm path:
// appending into a buffer that already has the room allocates nothing.
// The server encodes every accepted upload this way.
func TestAppendRunsBinaryAllocCeiling(t *testing.T) {
	runs := benchRuns(3)
	runs[0].Load = []hostsim.Load{{Time: 1, CPU: 0.5, MemFrac: 0.25, DiskQ: 2}}
	buf := AppendRunsBinary(nil, runs)
	if avg := testing.AllocsPerRun(100, func() { buf = AppendRunsBinary(buf[:0], runs) }); avg != 0 {
		t.Errorf("AppendRunsBinary into a warm buffer allocates %.1f/call, want 0", avg)
	}
}

// TestParseRunsBinaryAllocCeiling pins the binary decoder's cost per run
// on a 3-run upload batch, against ParseRuns's 9: the run's strings in
// one copy, the Levels and LastFive maps (header and first group each)
// and the LastFive values; the runs themselves and the output slice are
// one allocation each per batch.
func TestParseRunsBinaryAllocCeiling(t *testing.T) {
	const perRun = 7
	runs := benchRuns(3)
	payload := AppendRunsBinary(nil, runs)
	avg := testing.AllocsPerRun(100, func() {
		if _, err := ParseRunsBinary(payload); err != nil {
			t.Fatal(err)
		}
	})
	if avg > perRun*float64(len(runs)) {
		t.Errorf("ParseRunsBinary allocates %.1f per %d-run batch, ceiling %d per run", avg, len(runs), perRun)
	}
}

// BenchmarkDecodeRunsBinary decodes one 3-run upload batch from its
// binary form; compare BenchmarkDecodeRuns.
func BenchmarkDecodeRunsBinary(b *testing.B) {
	payload := AppendRunsBinary(nil, benchRuns(3))
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runs, err := ParseRunsBinary(payload)
		if err != nil {
			b.Fatal(err)
		}
		decodeSink = runs
	}
}

// BenchmarkCountRunsBinary checks one 3-run upload batch without
// decoding it, the walk replay makes over every binary run record;
// compare BenchmarkDecodeRunsBinary.
func BenchmarkCountRunsBinary(b *testing.B) {
	payload := AppendRunsBinary(nil, benchRuns(3))
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := CountRunsBinary(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeRunsBinary encodes a 3-run upload batch into a warm
// buffer; compare BenchmarkEncodeRuns.
func BenchmarkEncodeRunsBinary(b *testing.B) {
	runs := benchRuns(3)
	buf := AppendRunsBinary(nil, runs)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendRunsBinary(buf[:0], runs)
	}
	encodeSink = buf
}
