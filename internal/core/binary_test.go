package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
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
	for _, s := range codecSeeds() {
		f.Add(s)
	}
	load := benchRuns(3)
	load[1].Load = []hostsim.Load{{Time: 0, CPU: 0.5, MemFrac: 0.25, DiskQ: 2}, {Time: 1, CPU: 1, MemFrac: -0.0, DiskQ: 1e21}}
	load[2].Shape, load[2].Params = "custom", "a b  c"
	f.Add(string(AppendRuns(nil, load, true)))
	f.Add(string(AppendRunsBinary(nil, load)))
	f.Add(string(binary.AppendUvarint(nil, 1<<40)))
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

// TestBinaryRunChunks cuts one batch at several sizes: every chunk
// decodes, stays within the bound unless it holds a single run, and the
// chunks together are the runs in order.
func TestBinaryRunChunks(t *testing.T) {
	runs := benchRuns(40)
	whole := len(AppendRunsBinary(nil, runs))
	for _, max := range []int{1, 100, 500, whole - 1, whole, 1 << 20} {
		var got []*Run
		chunks := 0
		err := BinaryRunChunks(runs, max, func(chunk []byte) error {
			part, err := ParseRunsBinary(chunk)
			if err != nil {
				return err
			}
			if len(chunk) > max && len(part) > 1 {
				return fmt.Errorf("chunk of %d runs is %d bytes, bound %d", len(part), len(chunk), max)
			}
			got = append(got, part...)
			chunks++
			return nil
		})
		if err != nil {
			t.Fatalf("max %d: %v", max, err)
		}
		if d := diffRuns(got, runs); d != "" {
			t.Fatalf("max %d: %s", max, d)
		}
		if max >= whole && chunks != 1 {
			t.Errorf("max %d: %d chunks, want 1", max, chunks)
		}
		if max == 1 && chunks != len(runs) {
			t.Errorf("max 1: %d chunks, want one per run", chunks)
		}
	}
	if err := BinaryRunChunks(nil, 1, func([]byte) error { t.Fatal("emit called for no runs"); return nil }); err != nil {
		t.Fatal(err)
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
