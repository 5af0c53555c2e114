package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// roundTripMessages is the shape coverage shared by the v3 round-trip
// tests: every message type the fleet sends, plus edge shapes (empty
// payload, zero values omitted, code-0 unknown type).
func roundTripMessages() []Message {
	return []Message{
		benchMessage(),
		{Type: TypeRegister, Ver: Version, Nonce: "n-1", Snapshot: &Snapshot{
			Hostname: "h", OS: "linux", CPUGHz: 2.4, MemMB: 8192, DiskGB: 256,
			Apps: []string{"word", "game"},
		}},
		{Type: TypeRegistered, ClientID: "uucs-0000000000000001", Ver: V3},
		{Type: TypeSync, ClientID: "c1", Have: []string{"tc-1", "tc-2"}, Want: 10},
		{Type: TypeTestcases, Payload: "tc\tword\t0.5\n", Count: 1},
		{Type: TypeAck, Seq: 7, Count: 3, Dup: true},
		{Type: TypeError, Err: `quote " and \ backslash`},
		{Type: TypeShip, Node: "n2", Seq: 9, Payload: "segment-bytes\x00\xff"},
		{Type: TypeShipAck, Node: "n2", Seq: 9},
		{Type: TypeJournalMeta, Ver: 3},
		{Type: MsgType("future-type"), Payload: "p"},
		{Type: TypeResults},
	}
}

// TestBinaryFrameRoundTrips sends every message shape in v3 framing
// and verifies Recv materializes an identical message.
func TestBinaryFrameRoundTrips(t *testing.T) {
	for _, m := range roundTripMessages() {
		frame := encodedFrameV(t, m, V3)
		c := NewConn(&repeatReader{frame: frame})
		got, err := c.Recv()
		if err != nil {
			t.Fatalf("%s: round trip: %v", m.Type, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%s: round trip mismatch:\n got %+v\nwant %+v", m.Type, got, m)
		}
	}
}

// TestDecodeFrameRoundTrips round-trips through the exported
// AppendFrame/DecodeFrame pair (the journal's record codec) and checks
// the borrowed views against the source message.
func TestDecodeFrameRoundTrips(t *testing.T) {
	for _, m := range roundTripMessages() {
		b, err := AppendFrame(nil, m)
		if err != nil {
			t.Fatalf("%s: encode: %v", m.Type, err)
		}
		var f Frame
		n, err := DecodeFrame(b, &f)
		if err != nil {
			t.Fatalf("%s: decode: %v", m.Type, err)
		}
		if n != len(b) {
			t.Errorf("%s: decode consumed %d of %d bytes", m.Type, n, len(b))
		}
		if !bytes.Equal(f.Raw(), b) {
			t.Errorf("%s: Raw() is not the verbatim frame", m.Type)
		}
		got, err := f.Message()
		if err != nil {
			t.Fatalf("%s: materialize: %v", m.Type, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%s: round trip mismatch:\n got %+v\nwant %+v", m.Type, got, m)
		}
	}
}

// TestDecodeFrameTruncation verifies that every prefix of a valid
// frame fails with ErrShortFrame — the torn-tail signal journal replay
// depends on — and never decodes as something else.
func TestDecodeFrameTruncation(t *testing.T) {
	b, err := AppendFrame(nil, benchMessage())
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(b); cut++ {
		var f Frame
		_, err := DecodeFrame(b[:cut], &f)
		if !errors.Is(err, ErrShortFrame) {
			t.Fatalf("prefix of %d/%d bytes: got %v, want ErrShortFrame", cut, len(b), err)
		}
	}
}

// TestDecodeFrameCorruption flips each byte of a valid frame and
// requires the decoder to either reject the frame or decode a message
// identical to the original (a flip confined to skippable padding).
// Corruption must never be mistaken for truncation: a complete frame
// with a bad CRC is poison, not a torn tail.
func TestDecodeFrameCorruption(t *testing.T) {
	orig := benchMessage()
	b, err := AppendFrame(nil, orig)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		mut := append([]byte(nil), b...)
		mut[i] ^= 0x01
		var f Frame
		_, err := DecodeFrame(mut, &f)
		if err != nil {
			continue // rejected: corruption detected
		}
		got, err := f.Message()
		if err != nil || !reflect.DeepEqual(got, orig) {
			t.Fatalf("flip at byte %d decoded a different message (err %v)", i, err)
		}
	}
	// CRC trailer corruption specifically must fail as corruption, not
	// as a short frame.
	mut := append([]byte(nil), b...)
	mut[len(mut)-1] ^= 0xff
	var f Frame
	if _, err := DecodeFrame(mut, &f); err == nil || errors.Is(err, ErrShortFrame) {
		t.Fatalf("CRC corruption: got %v, want hard decode error", err)
	}
}

// TestRecvFrameRepliesInKind verifies the negotiation mechanics on the
// serving side: after receiving a frame, the connection's send framing
// matches the frame's wire version, so replies always parse at the
// requester.
func TestRecvFrameRepliesInKind(t *testing.T) {
	v2frame := encodedFrame(t, benchMessage())
	v3frame := encodedFrameV(t, benchMessage(), V3)
	stream := append(append([]byte(nil), v3frame...), v2frame...)
	c := NewConn(&repeatReader{frame: stream})
	f, err := c.RecvFrame()
	if err != nil {
		t.Fatal(err)
	}
	if f.WireVersion != V3 || c.Version() != V3 {
		t.Fatalf("after v3 frame: wire %d, conn %d; want V3/V3", f.WireVersion, c.Version())
	}
	if f, err = c.RecvFrame(); err != nil {
		t.Fatal(err)
	}
	if f.WireVersion != V2 || c.Version() != V2 {
		t.Fatalf("after v2 frame: wire %d, conn %d; want V2/V2", f.WireVersion, c.Version())
	}
}

// TestRecvFrameBorrowedFields checks the v3 frame exposes the expected
// borrowed views, and that Raw() is the verbatim wire frame.
func TestRecvFrameBorrowedFields(t *testing.T) {
	m := benchMessage()
	frame := encodedFrameV(t, m, V3)
	c := NewConn(&repeatReader{frame: frame})
	f, err := c.RecvFrame()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != m.Type || string(f.ClientID) != m.ClientID || f.Seq != m.Seq {
		t.Fatalf("borrowed fields mismatch: %+v", f)
	}
	if string(f.Payload) != m.Payload {
		t.Fatalf("borrowed payload mismatch")
	}
	if !bytes.Equal(f.Raw(), frame) {
		t.Fatalf("Raw() differs from the wire frame")
	}
}

// TestSendPayload verifies the zero-copy payload override is
// equivalent to sending the payload as a string, in both framings —
// except under v2, where binary-unsafe bytes would be mangled by JSON
// string coercion, which is why the shipper always speaks v3.
func TestSendPayload(t *testing.T) {
	payload := []byte("op-bytes \x00\x01 binary safe under v3")
	for _, ver := range []int{V2, V3} {
		if ver == V2 {
			payload = []byte("utf8-only payload under v2")
		}
		var cw captureWriter
		c := NewConn(&cw)
		c.SetVersion(ver)
		m := Message{Type: TypeShip, Node: "n1", Seq: 4}
		if err := c.SendPayload(m, payload); err != nil {
			t.Fatal(err)
		}
		rc := NewConn(&repeatReader{frame: append([]byte(nil), cw.frame...)})
		got, err := rc.Recv()
		if err != nil {
			t.Fatalf("v%d: %v", ver, err)
		}
		if got.Payload != string(payload) || got.Node != "n1" || got.Seq != 4 {
			t.Fatalf("v%d: payload round trip mismatch: %+v", ver, got)
		}
	}
}

// TestBinaryFrameMaxLine verifies the length-prefix bound: a frame
// whose declared payload exceeds maxLine is rejected on both ends.
func TestBinaryFrameMaxLine(t *testing.T) {
	var cw captureWriter
	c := NewConn(&cw)
	c.SetVersion(V3)
	err := c.Send(Message{Type: TypeResults, Payload: strings.Repeat("x", maxLine)})
	if err == nil {
		t.Fatal("oversized v3 send accepted")
	}
	// Hand-build a tiny frame claiming a huge payload.
	b := []byte{FrameMagic, 0xff, 0xff, 0xff, 0xff, 0x7f}
	var f Frame
	if _, err := DecodeFrame(b, &f); err == nil || errors.Is(err, ErrShortFrame) {
		t.Fatalf("oversized length prefix: got %v, want hard decode error", err)
	}
}

// TestRecvClaimedLengthCostsNothing checks the receive bound: a peer
// that claims a 60 MiB frame, sends 10 payload bytes and closes gets
// io.ErrUnexpectedEOF, and the connection allocates for the bytes that
// arrived, not for the length claimed.
func TestRecvClaimedLengthCostsNothing(t *testing.T) {
	claim := binary.AppendUvarint([]byte{FrameMagic}, 60<<20)
	c := NewConn(rwBuffer{in: bytes.NewBuffer(append(claim, "0123456789"...)), out: &bytes.Buffer{}})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := c.RecvFrame()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want %v", err, io.ErrUnexpectedEOF)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("a 10-byte frame claiming 60 MiB allocated %d bytes", grew)
	}
}

// TestSendFrameKeepsFraming checks the relay primitive: a v3
// connection writes the frame's wire bytes verbatim, a v2 connection
// re-encodes it as a JSON line carrying the same message.
func TestSendFrameKeepsFraming(t *testing.T) {
	m := benchMessage()
	wire := encodedFrameV(t, m, V3)
	f, err := NewConn(&repeatReader{frame: wire}).RecvFrame()
	if err != nil {
		t.Fatal(err)
	}
	for _, ver := range []int{V2, V3} {
		var cw captureWriter
		c := NewConn(&cw)
		c.SetVersion(ver)
		if err := c.SendFrame(f); err != nil {
			t.Fatalf("v%d: %v", ver, err)
		}
		if ver == V3 && !bytes.Equal(cw.frame, wire) {
			t.Fatalf("v3 relay re-encoded the frame")
		}
		if ver == V2 && cw.frame[0] != '{' {
			t.Fatalf("v2 relay is not a JSON line: %q", cw.frame)
		}
		got, err := NewConn(&repeatReader{frame: cw.frame}).Recv()
		if err != nil {
			t.Fatalf("v%d: relayed frame rejected: %v", ver, err)
		}
		got.Sum = nil
		if !reflect.DeepEqual(got, m) {
			t.Errorf("v%d: relay changed the message:\n got %+v\nwant %+v", ver, got, m)
		}
	}
}

// TestRecvReleasesOversizedBuffers checks that one large message does
// not pin its receive buffers for the rest of the connection: once the
// next message is read, neither the frame buffer nor the line buffer
// holds more than ConnBufSize, in either framing.
func TestRecvReleasesOversizedBuffers(t *testing.T) {
	big := Message{Type: TypeResults, ClientID: "c", Seq: 1, Payload: strings.Repeat("x", 8<<20)}
	for _, ver := range []int{V2, V3} {
		stream := append(encodedFrameV(t, big, ver), encodedFrameV(t, benchMessage(), ver)...)
		c := NewConn(rwBuffer{in: bytes.NewBuffer(stream), out: &bytes.Buffer{}})
		if _, err := c.RecvFrame(); err != nil {
			t.Fatalf("v%d: large frame: %v", ver, err)
		}
		if cap(c.rbuf) < 8<<20 {
			t.Fatalf("v%d: large frame did not pass through the frame buffer", ver)
		}
		if _, err := c.RecvFrame(); err != nil {
			t.Fatalf("v%d: small frame: %v", ver, err)
		}
		if cap(c.rbuf) > ConnBufSize || cap(c.r.buf) > ConnBufSize {
			t.Errorf("v%d: retained %d B frame buffer and %d B line buffer after a small message, want ≤ %d",
				ver, cap(c.rbuf), cap(c.r.buf), ConnBufSize)
		}
	}
}

// BenchmarkRecvLargeFrame receives frames above ConnBufSize: "first"
// is the first frame of a connection, whose buffer grows as the
// payload arrives; "stream" is a connection that already received one,
// whose buffer is reused.
func BenchmarkRecvLargeFrame(b *testing.B) {
	for _, size := range []int{256 << 10, 4 << 20, 32 << 20} {
		m := benchMessage()
		m.Payload = strings.Repeat("run\tword\tcpu\t0.45\t1\t173ms\tok\n", size/30)
		frame := encodedFrameV(b, m, V3)
		b.Run(fmt.Sprintf("first/%dKiB", size>>10), func(b *testing.B) {
			b.SetBytes(int64(len(frame)))
			r := bytes.NewReader(frame)
			for i := 0; i < b.N; i++ {
				r.Reset(frame)
				if _, err := NewConn(struct {
					io.Reader
					io.Writer
				}{r, io.Discard}).RecvFrame(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("stream/%dKiB", size>>10), func(b *testing.B) {
			b.SetBytes(int64(len(frame)))
			c := NewConn(&repeatReader{frame: frame})
			for i := 0; i < b.N; i++ {
				if _, err := c.RecvFrame(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
