package protocol

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"unicode/utf8"
)

// FuzzRecv throws arbitrary bytes at the wire decoder: the server reads
// these straight off TCP connections from untrusted clients, so Recv
// must never panic and must terminate.
func FuzzRecv(f *testing.F) {
	seed := [][]byte{
		nil,
		[]byte("{}\n"),
		[]byte(`{"type":"register","ver":1,"snapshot":{"hostname":"h","cpu_ghz":2,"mem_mb":512}}` + "\n"),
		[]byte(`{"type":"sync","client_id":"x","have":["a","b"],"want":5}` + "\n"),
		[]byte(`{"type":"results","payload":"run t\nendrun\n"}` + "\n"),
		[]byte("not json at all\n"),
		[]byte(`{"type":1234}` + "\n"),
		[]byte(`{"type":"ack"`), // truncated
		bytes.Repeat([]byte("x"), 4096),
	}
	// v3 binary framing seeds: a valid frame, a frame truncated inside
	// its length prefix, a frame cut mid-payload, and a frame whose CRC
	// trailer is corrupted.
	v3frame, err := AppendFrame(nil, Message{Type: TypeResults, ClientID: "uucs-1", Seq: 3, Payload: "run\tword\tcpu\t0.45\t1\t173ms\tok\n"})
	if err != nil {
		f.Fatal(err)
	}
	seed = append(seed,
		v3frame,
		append(append([]byte(nil), v3frame...), v3frame...), // back-to-back frames
		v3frame[:3],              // truncated inside the length prefix
		v3frame[:len(v3frame)-6], // truncated mid-payload
		func() []byte { // CRC trailer corruption
			b := append([]byte(nil), v3frame...)
			b[len(b)-1] ^= 0xff
			return b
		}(),
		append(append([]byte(nil), v3frame...), []byte(`{"type":"ack","seq":1,"sum":0}`+"\n")...), // mixed framings on one stream
		[]byte{FrameMagic, 0xff, 0xff, 0xff, 0xff, 0x7f},                                          // huge declared length
		[]byte{FrameMagic, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80},      // overlong varint
	)
	for _, s := range seed {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		conn := NewConn(rwBuffer{in: bytes.NewBuffer(input), out: &bytes.Buffer{}})
		for i := 0; i < 16; i++ { // bounded: a stream yields finite messages
			m, err := conn.Recv()
			if err != nil {
				return
			}
			if m.Type == "" {
				t.Fatal("Recv returned a typeless message without error")
			}
			// Anything accepted must re-send cleanly.
			if err := conn.Send(m); err != nil {
				t.Fatalf("accepted message failed to send: %v", err)
			}
		}
	})
}

// FuzzDecodeFrame throws arbitrary bytes at the exported v3 frame
// decoder — the codec journal replay and merge run over on-disk bytes
// — and checks it never panics, never reads past its input, and that
// anything it accepts re-encodes to a frame carrying the same message.
func FuzzDecodeFrame(f *testing.F) {
	valid, err := AppendFrame(nil, Message{Type: TypeResults, ClientID: "uucs-1", Seq: 3, Payload: "p"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(nil))
	f.Add(valid)
	f.Add(valid[:3])
	f.Add(valid[:len(valid)-2])
	f.Add(append(append([]byte(nil), valid...), 0xB3))
	f.Add([]byte{FrameMagic, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, input []byte) {
		var f1 Frame
		n, err := DecodeFrame(input, &f1)
		if err != nil {
			return
		}
		if n <= 0 || n > len(input) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(input))
		}
		m, err := f1.Message()
		if err != nil {
			return // accepted framing, unparseable nested field
		}
		re, err := AppendFrame(nil, m)
		if err != nil {
			t.Fatalf("accepted message failed to re-encode: %v", err)
		}
		var f2 Frame
		if _, err := DecodeFrame(re, &f2); err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		m2, err := f2.Message()
		if err != nil {
			t.Fatalf("re-encoded frame failed to materialize: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("re-encode changed the message:\n got %+v\nwant %+v", m2, m)
		}
	})
}

// FuzzSendRoundTrip encodes arbitrary messages in both framings — the
// seed corpus covers the sequence-numbered upload and its ack in v2
// and v3 — and checks two properties: an encoded message decodes to
// itself, and a single flipped byte of the encoding is either rejected
// or provably harmless (the original content still arrives intact).
// The receiver sniffs the framing per message, so this also exercises
// the cross-version path a mid-rollout fleet runs: v2 frames and v3
// frames arriving at the same decoder.
func FuzzSendRoundTrip(f *testing.F) {
	for _, v3 := range []bool{false, true} {
		f.Add("results", "uucs-0000000000000001", "run tc-1\ntask word\nuser 3\nendrun\n", uint64(1), false, 1, v3)
		f.Add("results", "uucs-ffffffffffffffff", "", uint64(18446744073709551615), false, 0, v3)
		f.Add("ack", "", "", uint64(7), true, 3, v3)
		f.Add("ack", "", "", uint64(0), false, 0, v3)
		f.Add("register", "", "", uint64(0), false, 0, v3)
		f.Add("sync", "uucs-2", "", uint64(0), false, 16, v3)
	}
	f.Add("ship", "", "segment \x00\xff not utf8", uint64(2), false, 0, true)
	f.Fuzz(func(t *testing.T, typ, clientID, payload string, seq uint64, dup bool, count int, v3 bool) {
		if typ == "" {
			return // Recv rejects typeless messages by design
		}
		m := Message{Type: MsgType(typ), ClientID: clientID, Payload: payload, Seq: seq, Dup: dup, Count: count}
		var wire bytes.Buffer
		sender := NewConn(rwBuffer{in: &bytes.Buffer{}, out: &wire})
		if v3 {
			sender.SetVersion(V3)
		}
		if err := sender.Send(m); err != nil {
			t.Fatalf("send failed: %v", err)
		}
		frame := append([]byte(nil), wire.Bytes()...)

		// JSON marshalling coerces invalid UTF-8 to U+FFFD, which makes the
		// checksum non-canonical (the sender hashes the escaped form, the
		// receiver re-hashes the decoded rune). The v2 framing may
		// therefore reject fuzzed garbage, which is the safe outcome — it
		// must just never be mangled silently. The v3 framing is
		// binary-safe: round-trip identity holds for every input.
		valid := v3 || (utf8.ValidString(typ) && utf8.ValidString(clientID) && utf8.ValidString(payload))
		got, err := NewConn(rwBuffer{in: bytes.NewBuffer(frame), out: &bytes.Buffer{}}).Recv()
		if err != nil {
			if valid {
				t.Fatalf("clean round trip failed: %v", err)
			}
			return
		}
		if valid {
			if got.Type != m.Type || got.ClientID != m.ClientID || got.Payload != m.Payload ||
				got.Seq != m.Seq || got.Dup != m.Dup || got.Count != m.Count {
				t.Fatalf("round trip mangled message: sent %+v, got %+v", m, got)
			}
		}

		// Single-byte corruption at a few deterministic offsets: never
		// silently deliver different content.
		for _, idx := range []int{0, len(frame) / 3, 2 * len(frame) / 3, len(frame) - 2} {
			if idx < 0 || idx >= len(frame)-1 { // keep the v2 framing newline
				continue
			}
			mut := append([]byte(nil), frame...)
			mut[idx] ^= 0x01
			if !v3 && mut[idx] == '\n' {
				continue
			}
			c, err := NewConn(rwBuffer{in: bytes.NewBuffer(mut), out: &bytes.Buffer{}}).Recv()
			if err != nil {
				continue // rejected: corruption caught
			}
			if c.Type != got.Type || c.ClientID != got.ClientID || c.Payload != got.Payload ||
				c.Seq != got.Seq || c.Dup != got.Dup || c.Count != got.Count {
				t.Fatalf("flip at %d delivered corrupted content: %+v", idx, c)
			}
		}
	})
}

// FuzzRecvFrameAdapter is the differential check on the v2 receive
// adapter: the same bytes go to Recv and to RecvFrame, which must
// accept and reject the same messages, and every accepted message's
// frame must materialize to Recv's message (checksum field aside) from
// both the frame itself and its Raw() bytes re-decoded.
func FuzzRecvFrameAdapter(f *testing.F) {
	var stream []byte
	for _, m := range roundTripMessages() {
		line := encodedFrame(f, m)
		f.Add(line)
		stream = append(stream, line...)
		f.Add(encodedFrameV(f, m, V3))
	}
	f.Add(stream)
	// Empty lists survive the JSON decode as non-nil slices but are
	// omitted from the checksummed encoding, so this line verifies.
	sum, err := checksum(Message{Type: TypeSync})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(fmt.Sprintf(`{"type":"sync","have":[],"snapshot":{"apps":[]},"sum":%d}`+"\n", sum)))
	f.Add([]byte(`{"type":"ack","seq":1,"sum":0}` + "\n"))
	f.Add([]byte("not json\n"))
	f.Fuzz(func(t *testing.T, input []byte) {
		mc := NewConn(rwBuffer{in: bytes.NewBuffer(input), out: &bytes.Buffer{}})
		fc := NewConn(rwBuffer{in: bytes.NewBuffer(input), out: &bytes.Buffer{}})
		for i := 0; i < 16; i++ {
			m, merr := mc.Recv()
			fr, ferr := fc.RecvFrame()
			if (merr == nil) != (ferr == nil) {
				t.Fatalf("message %d: Recv error %v, RecvFrame error %v", i, merr, ferr)
			}
			if merr != nil {
				return
			}
			if fr.WireVersion != mc.Version() {
				t.Fatalf("message %d: frame reports wire v%d, Recv saw v%d", i, fr.WireVersion, mc.Version())
			}
			if msg := checkAdapted(fr, m); msg != "" {
				t.Fatalf("message %d: %s", i, msg)
			}
		}
	})
}

// checkAdapted reports how a received frame departs from the message
// Recv decoded from the same bytes, or "" if they agree: f.Message()
// and the re-decode of f.Raw() must both equal want with Sum cleared.
// Nil and empty lists compare equal — JSON keeps "[]" as an empty
// slice, but no encoding distinguishes the two.
func checkAdapted(f *Frame, want Message) string {
	want.Sum = nil
	want = normalizeLists(want)
	got, err := f.Message()
	if err != nil {
		return fmt.Sprintf("frame does not materialize: %v", err)
	}
	if got = normalizeLists(got); !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("frame message differs:\n got %+v\nwant %+v", got, want)
	}
	raw := f.Raw()
	if len(raw) == 0 || raw[0] != FrameMagic {
		return "Raw() is not a v3 frame"
	}
	var again Frame
	n, err := DecodeFrame(raw, &again)
	if err != nil || n != len(raw) {
		return fmt.Sprintf("Raw() does not re-decode: n=%d of %d, err %v", n, len(raw), err)
	}
	re, err := again.Message()
	if err != nil {
		return fmt.Sprintf("re-decoded frame does not materialize: %v", err)
	}
	if re = normalizeLists(re); !reflect.DeepEqual(re, want) {
		return fmt.Sprintf("re-decoded message differs:\n got %+v\nwant %+v", re, want)
	}
	return ""
}

// normalizeLists maps empty Have and Apps lists to nil.
func normalizeLists(m Message) Message {
	if len(m.Have) == 0 {
		m.Have = nil
	}
	if m.Snapshot != nil && len(m.Snapshot.Apps) == 0 {
		s := *m.Snapshot
		s.Apps = nil
		m.Snapshot = &s
	}
	return m
}
