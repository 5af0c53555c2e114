package protocol

import (
	"io"
	"testing"
)

// The wire codec is the per-message cost every ingest interaction pays
// twice (request + response), so its allocation profile is pinned the
// same way internal/core pins the run engine's: a benchmark to watch
// the numbers and an AllocsPerRun ceiling that fails when a hot-loop
// allocation creeps back in.

// benchMessage is a representative results-upload frame: the message
// shape the server decodes most and the client encodes most.
func benchMessage() Message {
	return Message{
		Type:     TypeResults,
		ClientID: "client-00042",
		Seq:      1729,
		Payload: "run\tword\tcpu\t0.45\t1\t173ms\tok\n" +
			"run\tword\tmem\t0.30\t1\t181ms\tok\n" +
			"run\tword\tdisk\t0.15\t1\t164ms\tok\n",
	}
}

// discardWriter is an io.ReadWriter that drops writes; reads are never
// used on the encode side.
type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (discardWriter) Read(p []byte) (int, error)  { return 0, io.EOF }

// repeatReader serves the same frame bytes forever, so a decode loop
// can run without re-framing; writes are dropped.
type repeatReader struct {
	frame []byte
	off   int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := copy(p, r.frame[r.off:])
	r.off = (r.off + n) % len(r.frame)
	return n, nil
}

func (r *repeatReader) Write(p []byte) (int, error) { return len(p), nil }

// captureWriter records the last frame written, for building the decode
// fixture from a real Send.
type captureWriter struct{ frame []byte }

func (c *captureWriter) Write(p []byte) (int, error) {
	c.frame = append(c.frame[:0], p...)
	return len(p), nil
}
func (c *captureWriter) Read(p []byte) (int, error) { return 0, io.EOF }

// encodedFrame returns the exact wire bytes Send produces for m in v2
// framing.
func encodedFrame(tb testing.TB, m Message) []byte {
	tb.Helper()
	return encodedFrameV(tb, m, V2)
}

// encodedFrameV returns the exact wire bytes Send produces for m in
// the given framing version.
func encodedFrameV(tb testing.TB, m Message, ver int) []byte {
	tb.Helper()
	var cw captureWriter
	c := NewConn(&cw)
	c.SetVersion(ver)
	if err := c.Send(m); err != nil {
		tb.Fatal(err)
	}
	return append([]byte(nil), cw.frame...)
}

func BenchmarkEncodeMessage(b *testing.B) {
	for _, ver := range []int{V2, V3} {
		b.Run(versionName(ver), func(b *testing.B) {
			c := NewConn(discardWriter{})
			c.SetVersion(ver)
			m := benchMessage()
			b.ReportAllocs()
			b.SetBytes(int64(len(encodedFrameV(b, m, ver))))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Send(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecodeMessage measures the receive path the server runs for
// each wire version: RecvFrame, which for v2 decodes and verifies the
// JSON line and converts it to a frame, and for v3 decodes the borrowed
// view in place (the zero-copy ingest path).
func BenchmarkDecodeMessage(b *testing.B) {
	for _, ver := range []int{V2, V3} {
		b.Run(versionName(ver), func(b *testing.B) {
			frame := encodedFrameV(b, benchMessage(), ver)
			c := NewConn(&repeatReader{frame: frame})
			b.ReportAllocs()
			b.SetBytes(int64(len(frame)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.RecvFrame(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func versionName(ver int) string {
	if ver == V3 {
		return "v3"
	}
	return "v2"
}

// TestSendAllocCeiling pins the steady-state allocation count of Send.
// After the pooled encoder is warm, the only allocations left are
// encoding/json internals; the pooled buffer, the checksum splice, and
// the frame write add none.
func TestSendAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const ceiling = 4
	c := NewConn(discardWriter{})
	m := benchMessage()
	// Warm the encoder pool to steady-state buffer size.
	if err := c.Send(m); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if err := c.Send(m); err != nil {
			t.Fatal(err)
		}
	})
	if avg > ceiling {
		t.Errorf("Send allocates %.1f/message, ceiling %d", avg, ceiling)
	}
}

// TestRecvAllocCeiling pins the steady-state allocation count of Recv.
// The remaining allocations are the decoded message's own contents
// (field strings, the Sum pointer) plus json.Unmarshal internals — the
// line assembly buffer and the checksum re-encode are reused.
func TestRecvAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const ceiling = 14
	frame := encodedFrame(t, benchMessage())
	c := NewConn(&repeatReader{frame: frame})
	// Warm the line buffer and checksum encoder.
	if _, err := c.Recv(); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, err := c.Recv(); err != nil {
			t.Fatal(err)
		}
	})
	if avg > ceiling {
		t.Errorf("Recv allocates %.1f/message, ceiling %d", avg, ceiling)
	}
}

// TestSendAllocCeilingV3 pins the steady-state allocation count of a
// v3 Send at ≤1: the pooled scratch slice absorbs the frame encoding,
// so after warmup the only allocation budget left is pool slack.
func TestSendAllocCeilingV3(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const ceiling = 1
	c := NewConn(discardWriter{})
	c.SetVersion(V3)
	m := benchMessage()
	if err := c.Send(m); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if err := c.Send(m); err != nil {
			t.Fatal(err)
		}
	})
	if avg > ceiling {
		t.Errorf("v3 Send allocates %.1f/message, ceiling %d", avg, ceiling)
	}
}

// TestRecvAllocCeilingV3 pins the steady-state allocation count of the
// v3 receive path — RecvFrame, the one servers run per ingested
// message — at exactly 0: the frame is read into a reused buffer and
// every decoded field is a borrowed view into it.
func TestRecvAllocCeilingV3(t *testing.T) {
	if raceEnabled {
		t.Skip("buffered reads allocate differently under the race detector")
	}
	const ceiling = 0
	frame := encodedFrameV(t, benchMessage(), V3)
	c := NewConn(&repeatReader{frame: frame})
	// Warm the frame assembly buffer.
	if _, err := c.RecvFrame(); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, err := c.RecvFrame(); err != nil {
			t.Fatal(err)
		}
	})
	if avg > ceiling {
		t.Errorf("v3 RecvFrame allocates %.1f/message, ceiling %d", avg, ceiling)
	}
}

// TestSplicedFrameRoundTrips verifies the spliced sum field is
// byte-level valid JSON that decodes and checksum-verifies, for frames
// spanning every message type and the empty-payload edge.
func TestSplicedFrameRoundTrips(t *testing.T) {
	msgs := []Message{
		benchMessage(),
		{Type: TypeRegister, Ver: Version, Nonce: "n-1", Snapshot: &Snapshot{
			Hostname: "h", OS: "linux", CPUGHz: 2.4, MemMB: 8192, DiskGB: 256,
			Apps: []string{"word", "game"},
		}},
		{Type: TypeSync, ClientID: "c1", Have: []string{"tc-1", "tc-2"}, Want: 10},
		{Type: TypeAck, Seq: 7, Count: 3, Dup: true},
		{Type: TypeError, Err: `quote " and \ backslash`},
	}
	for _, m := range msgs {
		frame := encodedFrame(t, m)
		c := NewConn(&repeatReader{frame: frame})
		got, err := c.Recv()
		if err != nil {
			t.Fatalf("%s: round trip: %v", m.Type, err)
		}
		if got.Sum == nil {
			t.Fatalf("%s: round trip lost the checksum", m.Type)
		}
		got.Sum = nil
		want, err := checksum(m)
		if err != nil {
			t.Fatal(err)
		}
		got2, err := checksum(got)
		if err != nil {
			t.Fatal(err)
		}
		if want != got2 {
			t.Errorf("%s: decoded message differs from sent one", m.Type)
		}
	}
}
