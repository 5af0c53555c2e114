package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"time"
	"unsafe"
)

// Protocol version 3: length-prefixed binary framing.
//
// The v2 frame is a JSON object per line with a spliced CRC — readable,
// but every hop pays a full JSON parse plus a second full encode (the
// checksum is verified by re-encoding the decoded message). At fleet
// scale that per-message CPU is the scaling currency, so v3 replaces
// the text frame with a binary one that decodes by slicing:
//
//	+------+-----------------+---------------------+-------------+
//	| 0xB3 | payload length  |       payload       |   CRC32     |
//	|magic |  (uvarint, ≤5B) |  (tagged fields)    | (IEEE, LE)  |
//	+------+-----------------+---------------------+-------------+
//
// The payload starts with the message type code (uvarint), followed by
// tagged fields: each tag is a uvarint whose low bit is the wire kind
// (0 = uvarint value, 1 = length-prefixed bytes) and whose high bits
// are the field id — so unknown fields are skippable and the format is
// forward-extensible. The CRC32 trailer covers the payload bytes
// exactly as they sit in the frame, which makes verification a single
// table walk instead of a re-encode, and makes the frame safe to store
// and forward verbatim: the router relays a v3 frame byte-for-byte, the
// server's journal records are frames (an accepted upload as a jruns
// frame carrying its runs in binary form, a testcase batch as a
// jtestcases frame carrying binary testcases), replicas receive those
// same bytes, and replay, compaction, and merge all re-read them
// without ever re-encoding.
//
// The first byte distinguishes the framings on sight: a v2 frame
// begins with '{' (0x7B), a v3 frame with 0xB3 — not valid UTF-8, so
// no JSON line can start with it. Every receiver sniffs per frame and
// answers in the framing of the request, which is what lets one server
// port serve a mixed v2/v3 fleet mid-rollout with no connection state.
//
// Negotiation happens at registration (see DESIGN.md for the state
// machine): a client that does not know the server's version sends its
// register in v2 framing with Ver=3; a v3 server accepts Ver 2 or 3
// and echoes the granted version in the registered reply, after which
// the client frames everything in the granted version. A v2 server
// rejects Ver=3 in-band, and a v2 client's Ver=2 register is granted
// Ver=2 — both sides of the rollout keep working.

// Protocol versions. Version is the highest this build speaks;
// registration negotiates down to V2 for old peers.
const (
	V2 = 2
	V3 = 3
)

// FrameMagic is the first byte of every v3 frame. It is not '{', not
// printable ASCII, and not a valid UTF-8 leading byte, so binary and
// JSON frames (and journal records) are distinguishable by one byte.
const FrameMagic = 0xB3

// ConnBufSize is the shared sizing constant for per-connection framing
// buffers: the buffered reader every Conn fronts its stream with, and
// the kernel socket buffers TuneConn requests. One constant so the
// read and write sides of a hop agree and tuning happens in one place.
const ConnBufSize = 64 << 10

// TuneConn applies the protocol's transport tuning to a network
// connection. TCP_NODELAY is set explicitly: every message here is one
// complete request or reply that the peer is blocked on, so delaying
// the final segment for coalescing (Nagle) only adds ack latency.
// Non-TCP connections (in-memory pipes, chaos transports) pass through
// untouched. NewConn calls this automatically.
func TuneConn(nc net.Conn) {
	tc, ok := nc.(*net.TCPConn)
	if !ok {
		return
	}
	_ = tc.SetNoDelay(true)
	_ = tc.SetReadBuffer(ConnBufSize)
	_ = tc.SetWriteBuffer(ConnBufSize)
}

// Message type codes (uvarint, first value of every frame payload).
// Code 0 is reserved for types outside this table, whose name then
// travels in fieldTypeName — nothing the fleet sends today, but it
// keeps the binary framing total over arbitrary Message values.
var typeCodes = map[MsgType]uint64{
	TypeRegister:         1,
	TypeRegistered:       2,
	TypeSync:             3,
	TypeTestcases:        4,
	TypeResults:          5,
	TypeAck:              6,
	TypeError:            7,
	TypeShip:             8,
	TypeShipAck:          9,
	TypeJournalMeta:      10,
	TypeJournalRuns:      11,
	TypeJournalTestcases: 12,
}

var typeByCode = [...]MsgType{
	0:  "",
	1:  TypeRegister,
	2:  TypeRegistered,
	3:  TypeSync,
	4:  TypeTestcases,
	5:  TypeResults,
	6:  TypeAck,
	7:  TypeError,
	8:  TypeShip,
	9:  TypeShipAck,
	10: TypeJournalMeta,
	11: TypeJournalRuns,
	12: TypeJournalTestcases,
}

// Field ids. The wire tag is id<<1 | kind, kind 0 = uvarint value,
// kind 1 = length-prefixed bytes; ints round-trip through uint64.
const (
	fieldVer      = 1  // uvarint
	fieldNonce    = 2  // bytes
	fieldClientID = 3  // bytes
	fieldWant     = 4  // uvarint
	fieldPayload  = 5  // bytes
	fieldCount    = 6  // uvarint
	fieldSeq      = 7  // uvarint
	fieldDup      = 8  // uvarint (0/1)
	fieldNode     = 9  // bytes
	fieldErr      = 10 // bytes
	fieldSnapshot = 11 // bytes: nested snapshot encoding
	fieldHave     = 12 // bytes: nested id list
	fieldTypeName = 13 // bytes: type outside the code table (code 0)
)

// lenPrefixBytes is the fixed width of the frame's payload-length
// prefix: a uvarint padded to 5 bytes (continuation bits set), so the
// encoder can reserve the prefix, encode the payload in place, and
// back-patch the length without moving a byte. Decoders accept any
// uvarint width — padding is a valid, if non-minimal, encoding.
const lenPrefixBytes = 5

// ErrShortFrame reports that a buffer ends before the v3 frame it
// starts does — the signature of a torn tail (journal replay) or a
// not-yet-complete read, as opposed to corruption.
var ErrShortFrame = errors.New("protocol: truncated v3 frame")

// putPaddedUvarint writes v as a uvarint padded to exactly
// lenPrefixBytes bytes.
func putPaddedUvarint(b []byte, v uint64) {
	for i := 0; i < lenPrefixBytes-1; i++ {
		b[i] = byte(v) | 0x80
		v >>= 7
	}
	b[lenPrefixBytes-1] = byte(v)
}

func appendUintField(dst []byte, id uint64, v uint64) []byte {
	dst = binary.AppendUvarint(dst, id<<1)
	return binary.AppendUvarint(dst, v)
}

func appendBytesTag(dst []byte, id uint64, n int) []byte {
	dst = binary.AppendUvarint(dst, id<<1|1)
	return binary.AppendUvarint(dst, uint64(n))
}

func appendBytesField(dst []byte, id uint64, b []byte) []byte {
	dst = appendBytesTag(dst, id, len(b))
	return append(dst, b...)
}

func appendStringField(dst []byte, id uint64, s string) []byte {
	dst = appendBytesTag(dst, id, len(s))
	return append(dst, s...)
}

// appendLenString appends a uvarint length + raw bytes (the nested
// encodings' primitive).
func appendLenString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendFrame appends the complete v3 encoding of m to dst and returns
// the extended slice. The inverse of DecodeFrame.
func AppendFrame(dst []byte, m Message) ([]byte, error) {
	return appendFrame(dst, m, nil)
}

// appendFrame encodes m; a non-nil payload overrides m.Payload without
// going through a string (the zero-copy send path for journal segment
// shipping).
func appendFrame(dst []byte, m Message, payload []byte) ([]byte, error) {
	start := len(dst)
	dst = append(dst, FrameMagic)
	lenAt := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0)
	payloadAt := len(dst)

	code := typeCodes[m.Type]
	dst = binary.AppendUvarint(dst, code)
	if code == 0 {
		dst = appendStringField(dst, fieldTypeName, string(m.Type))
	}
	if m.Ver != 0 {
		dst = appendUintField(dst, fieldVer, uint64(m.Ver))
	}
	if m.Snapshot != nil {
		dst = appendSnapshotField(dst, m.Snapshot)
	}
	if m.Nonce != "" {
		dst = appendStringField(dst, fieldNonce, m.Nonce)
	}
	if m.ClientID != "" {
		dst = appendStringField(dst, fieldClientID, m.ClientID)
	}
	if len(m.Have) > 0 {
		dst = appendHaveField(dst, m.Have)
	}
	if m.Want != 0 {
		dst = appendUintField(dst, fieldWant, uint64(m.Want))
	}
	switch {
	case payload != nil:
		dst = appendBytesField(dst, fieldPayload, payload)
	case m.Payload != "":
		dst = appendStringField(dst, fieldPayload, m.Payload)
	}
	if m.Count != 0 {
		dst = appendUintField(dst, fieldCount, uint64(m.Count))
	}
	if m.Seq != 0 {
		dst = appendUintField(dst, fieldSeq, m.Seq)
	}
	if m.Dup {
		dst = appendUintField(dst, fieldDup, 1)
	}
	if m.Node != "" {
		dst = appendStringField(dst, fieldNode, m.Node)
	}
	if m.Err != "" {
		dst = appendStringField(dst, fieldErr, m.Err)
	}

	n := len(dst) - payloadAt
	if n > maxLine {
		return dst[:start], fmt.Errorf("protocol: message too large (%d bytes)", n)
	}
	putPaddedUvarint(dst[lenAt:lenAt+lenPrefixBytes], uint64(n))
	sum := crc32.ChecksumIEEE(dst[payloadAt:])
	return binary.LittleEndian.AppendUint32(dst, sum), nil
}

// appendSnapshotField encodes the registration snapshot as a nested
// positional payload (hostname, os, the three float64 bit patterns,
// then the app list). Nested length prefixes use the same padded
// reservation trick as the frame itself.
func appendSnapshotField(dst []byte, s *Snapshot) []byte {
	dst = binary.AppendUvarint(dst, fieldSnapshot<<1|1)
	lenAt := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0)
	at := len(dst)
	dst = appendLenString(dst, s.Hostname)
	dst = appendLenString(dst, s.OS)
	dst = binary.AppendUvarint(dst, math.Float64bits(s.CPUGHz))
	dst = binary.AppendUvarint(dst, math.Float64bits(s.MemMB))
	dst = binary.AppendUvarint(dst, math.Float64bits(s.DiskGB))
	dst = binary.AppendUvarint(dst, uint64(len(s.Apps)))
	for _, app := range s.Apps {
		dst = appendLenString(dst, app)
	}
	putPaddedUvarint(dst[lenAt:lenAt+lenPrefixBytes], uint64(len(dst)-at))
	return dst
}

// appendHaveField encodes the sync have-list as a nested count +
// length-prefixed ids.
func appendHaveField(dst []byte, have []string) []byte {
	dst = binary.AppendUvarint(dst, fieldHave<<1|1)
	lenAt := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0)
	at := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(have)))
	for _, id := range have {
		dst = appendLenString(dst, id)
	}
	putPaddedUvarint(dst[lenAt:lenAt+lenPrefixBytes], uint64(len(dst)-at))
	return dst
}

// Frame is one decoded wire message, in v3 form whatever framing it
// arrived in: RecvFrame re-encodes a verified v2 JSON line as a v3 frame
// at the edge, so every consumer behind it reads one shape. Every
// byte-slice field is a BORROWED view into the connection's (or
// caller's) buffer: zero bytes are copied between the read buffer and
// the caller, and the views stay valid only until the next RecvFrame on
// the same Conn (or, for DecodeFrame, while the input buffer lives).
// Callers that retain a field must copy it.
type Frame struct {
	// WireVersion is the framing the message arrived in: V2 or V3.
	WireVersion int

	Type     MsgType
	Ver      int
	Nonce    []byte
	ClientID []byte
	Have     [][]byte
	Want     int
	Payload  []byte
	Count    int
	Seq      uint64
	Dup      bool
	Node     []byte
	Err      []byte

	snapRaw []byte
	snap    *Snapshot
	raw     []byte // the complete v3 frame bytes
}

// reset clears f for reuse, keeping the Have backing array.
func (f *Frame) reset() {
	have := f.Have[:0]
	*f = Frame{Have: have}
}

// Raw returns the frame's v3 bytes, magic through CRC trailer: the
// verbatim wire bytes for a v3 arrival, the receive-time re-encoding for
// a v2 one. The slice is borrowed: valid until the next RecvFrame on the
// same Conn. These are the bytes a v3 hop forwards, CRC and all.
func (f *Frame) Raw() []byte { return f.raw }

// DecodeSnapshot returns the registration snapshot carried by the
// frame, or nil if it has none. The returned snapshot owns its memory.
func (f *Frame) DecodeSnapshot() (*Snapshot, error) {
	if f.snap != nil {
		return f.snap, nil
	}
	if f.snapRaw == nil {
		return nil, nil
	}
	b := f.snapRaw
	var s Snapshot
	host, pos, err := readLenBytes(b, 0)
	if err != nil {
		return nil, fmt.Errorf("protocol: snapshot hostname: %w", err)
	}
	s.Hostname = string(host)
	osb, pos, err := readLenBytes(b, pos)
	if err != nil {
		return nil, fmt.Errorf("protocol: snapshot os: %w", err)
	}
	s.OS = string(osb)
	var bits [3]uint64
	for i := range bits {
		v, n := binary.Uvarint(b[pos:])
		if n <= 0 {
			return nil, fmt.Errorf("protocol: snapshot hardware field %d truncated", i)
		}
		bits[i], pos = v, pos+n
	}
	s.CPUGHz = math.Float64frombits(bits[0])
	s.MemMB = math.Float64frombits(bits[1])
	s.DiskGB = math.Float64frombits(bits[2])
	nApps, n := binary.Uvarint(b[pos:])
	if n <= 0 {
		return nil, fmt.Errorf("protocol: snapshot app count truncated")
	}
	pos += n
	if nApps > uint64(len(b)-pos) {
		return nil, fmt.Errorf("protocol: snapshot app count %d exceeds payload", nApps)
	}
	for i := uint64(0); i < nApps; i++ {
		var app []byte
		app, pos, err = readLenBytes(b, pos)
		if err != nil {
			return nil, fmt.Errorf("protocol: snapshot app %d: %w", i, err)
		}
		s.Apps = append(s.Apps, string(app))
	}
	if pos != len(b) {
		return nil, fmt.Errorf("protocol: %d trailing bytes after snapshot", len(b)-pos)
	}
	f.snap = &s
	return f.snap, nil
}

// AsError converts a TypeError frame into a Go error, passing other
// frames through — the Frame analogue of AsError.
func (f *Frame) AsError() error {
	if f.Type == TypeError {
		return fmt.Errorf("protocol: server error: %s", f.Err)
	}
	return nil
}

// Message materializes the frame as a Message, copying every borrowed
// byte field into owned strings — the bridge for callers that want
// owned data. Sum is never set: a frame's integrity check is its CRC
// trailer.
func (f *Frame) Message() (Message, error) {
	m := Message{
		Type: f.Type, Ver: f.Ver, Want: f.Want, Count: f.Count,
		Seq: f.Seq, Dup: f.Dup,
	}
	if len(f.Nonce) > 0 {
		m.Nonce = string(f.Nonce)
	}
	if len(f.ClientID) > 0 {
		m.ClientID = string(f.ClientID)
	}
	if len(f.Payload) > 0 {
		m.Payload = string(f.Payload)
	}
	if len(f.Node) > 0 {
		m.Node = string(f.Node)
	}
	if len(f.Err) > 0 {
		m.Err = string(f.Err)
	}
	for _, id := range f.Have {
		m.Have = append(m.Have, string(id))
	}
	snap, err := f.DecodeSnapshot()
	if err != nil {
		return m, err
	}
	if snap != nil {
		s := *snap
		m.Snapshot = &s
	}
	return m, nil
}

// readLenBytes reads a uvarint length + that many bytes at pos.
func readLenBytes(b []byte, pos int) ([]byte, int, error) {
	n, w := binary.Uvarint(b[pos:])
	if w <= 0 {
		return nil, pos, fmt.Errorf("truncated length")
	}
	pos += w
	if n > uint64(len(b)-pos) {
		return nil, pos, fmt.Errorf("length %d exceeds remaining %d bytes", n, len(b)-pos)
	}
	return b[pos : pos+int(n)], pos + int(n), nil
}

// DecodeFrame parses one complete v3 frame from the front of b into f
// and returns the number of bytes it occupied. Byte-slice fields in f
// borrow from b. A buffer that ends mid-frame returns ErrShortFrame
// (distinguishing a torn tail from corruption); a complete frame whose
// CRC trailer does not match its payload is corruption and fails hard.
func DecodeFrame(b []byte, f *Frame) (int, error) {
	return decodeFrame(b, f, true)
}

// PeekFrame is DecodeFrame without the CRC check, for a reader that
// looks at a frame's fields ahead of its full decode: it skips over the
// Payload field's bytes instead of summing them.
func PeekFrame(b []byte, f *Frame) (int, error) {
	return decodeFrame(b, f, false)
}

// FrameHead returns what FrameLen does for the v3 frame at the front
// of b and, where that is a length, the frame's message type from its
// type code alone, reading no field and checking no CRC: "" where the
// code does not parse, and for code 0, whose type travels as a field.
func FrameHead(b []byte) (int, MsgType, error) {
	total, hdr, err := frameLen(b)
	if err != nil {
		return 0, "", err
	}
	code, n := binary.Uvarint(b[hdr:total])
	if n <= 0 || code >= uint64(len(typeByCode)) {
		return total, "", nil
	}
	return total, typeByCode[code], nil
}

func decodeFrame(b []byte, f *Frame, checkCRC bool) (int, error) {
	f.reset()
	total, hdr, err := frameLen(b)
	if err != nil {
		return 0, err
	}
	payload := b[hdr : total-4]
	want := binary.LittleEndian.Uint32(b[total-4:])
	if checkCRC && crc32.ChecksumIEEE(payload) != want {
		return 0, fmt.Errorf("protocol: frame checksum mismatch (message corrupted)")
	}
	if err := decodeFields(payload, f); err != nil {
		return 0, err
	}
	f.WireVersion = V3
	f.raw = b[:total]
	return total, nil
}

// FrameLen reports the total on-wire length of the v3 frame starting
// at b[0], without validating its checksum or decoding its fields. It
// fails exactly where DecodeFrame's framing layer would — ErrShortFrame
// when b ends before the declared length does, a hard error on a bad
// magic byte or a malformed/oversized length prefix — which is what
// lets journal replay split a file into record boundaries cheaply and
// still agree byte-for-byte with a full serial decode.
func FrameLen(b []byte) (int, error) {
	total, _, err := frameLen(b)
	return total, err
}

// frameLen is FrameLen that also returns the length of the frame's
// magic byte and length prefix, where its payload starts.
func frameLen(b []byte) (total, hdr int, err error) {
	if len(b) == 0 {
		return 0, 0, ErrShortFrame
	}
	if b[0] != FrameMagic {
		return 0, 0, fmt.Errorf("protocol: not a v3 frame (leading byte 0x%02x)", b[0])
	}
	plen, w := binary.Uvarint(b[1:])
	if w == 0 {
		if len(b) > 11 {
			return 0, 0, fmt.Errorf("protocol: malformed frame length prefix")
		}
		return 0, 0, ErrShortFrame
	}
	if w < 0 || plen > maxLine {
		return 0, 0, fmt.Errorf("protocol: frame payload length %d exceeds %d bytes", plen, maxLine)
	}
	total = 1 + w + int(plen) + 4
	if len(b) < total {
		return 0, 0, ErrShortFrame
	}
	return total, 1 + w, nil
}

// decodeFields parses a frame payload into f.
func decodeFields(payload []byte, f *Frame) error {
	code, w := binary.Uvarint(payload)
	if w <= 0 {
		return fmt.Errorf("protocol: frame without type code")
	}
	if code >= uint64(len(typeByCode)) {
		return fmt.Errorf("protocol: unknown message type code %d", code)
	}
	f.Type = typeByCode[code]
	pos := w
	for pos < len(payload) {
		tag, w := binary.Uvarint(payload[pos:])
		if w <= 0 {
			return fmt.Errorf("protocol: truncated field tag at offset %d", pos)
		}
		pos += w
		id := tag >> 1
		if tag&1 == 0 {
			v, w := binary.Uvarint(payload[pos:])
			if w <= 0 {
				return fmt.Errorf("protocol: truncated field %d value", id)
			}
			pos += w
			switch id {
			case fieldVer:
				f.Ver = int(v)
			case fieldWant:
				f.Want = int(v)
			case fieldCount:
				f.Count = int(v)
			case fieldSeq:
				f.Seq = v
			case fieldDup:
				f.Dup = v != 0
			default:
				// Unknown varint field: skipped (forward compatibility).
			}
			continue
		}
		val, next, err := readLenBytes(payload, pos)
		if err != nil {
			return fmt.Errorf("protocol: field %d: %w", id, err)
		}
		pos = next
		switch id {
		case fieldNonce:
			f.Nonce = val
		case fieldClientID:
			f.ClientID = val
		case fieldPayload:
			f.Payload = val
		case fieldNode:
			f.Node = val
		case fieldErr:
			f.Err = val
		case fieldSnapshot:
			f.snapRaw = val
		case fieldHave:
			if err := decodeHave(val, f); err != nil {
				return err
			}
		case fieldTypeName:
			if f.Type == "" {
				f.Type = MsgType(val)
			}
		default:
			// Unknown bytes field: skipped (forward compatibility).
		}
	}
	return nil
}

// decodeHave parses the nested have-list, reusing f.Have's backing.
func decodeHave(b []byte, f *Frame) error {
	count, w := binary.Uvarint(b)
	if w <= 0 {
		return fmt.Errorf("protocol: truncated have count")
	}
	if count > uint64(len(b)-w) {
		return fmt.Errorf("protocol: have count %d exceeds payload", count)
	}
	pos := w
	for i := uint64(0); i < count; i++ {
		id, next, err := readLenBytes(b, pos)
		if err != nil {
			return fmt.Errorf("protocol: have entry %d: %w", i, err)
		}
		f.Have = append(f.Have, id)
		pos = next
	}
	if pos != len(b) {
		return fmt.Errorf("protocol: %d trailing bytes after have list", len(b)-pos)
	}
	return nil
}

// SetVersion selects the framing Send uses: V2 (JSON lines, the
// default) or V3 (binary). Receiving always auto-detects per frame, and
// RecvFrame re-points the send framing at the sender's — a server
// answers each request in the framing it arrived in — so SetVersion
// matters on the requesting side: clients pin it from negotiation.
func (c *Conn) SetVersion(v int) {
	if v == V3 {
		c.version = V3
	} else {
		c.version = V2
	}
}

// Version reports the framing Send currently uses (V2 or V3).
func (c *Conn) Version() int {
	if c.version == V3 {
		return V3
	}
	return V2
}

// RecvFrame reads one message in either framing, verifying its
// integrity (CRC trailer for v3, checksum field for v2), and returns
// the connection-owned decoded frame. The frame and every borrowed
// field in it are valid only until the next RecvFrame or Recv on this
// Conn. As a side effect the connection's send framing is set to the
// frame's, so replies go back the way the request came.
//
// This is the one ingest path. A v3 frame is read into a buffer reused
// across messages and decoded in place — steady state receives allocate
// nothing, and Raw() is the exact wire bytes. A v2 line is the edge
// adapter: decoded and checksum-verified, then re-encoded as a v3 frame
// into the same buffer and decoded from there, so consumers never see a
// second shape. WireVersion stays V2, which keeps replies in JSON lines.
func (c *Conn) RecvFrame() (*Frame, error) {
	v3, err := c.startRecv()
	if err != nil {
		return nil, err
	}
	f := &c.frame
	if v3 {
		err = c.readBinaryFrame(f)
	} else {
		err = c.readLineFrame(f)
	}
	if err != nil {
		return nil, err
	}
	c.version = f.WireVersion
	return f, nil
}

// startRecv arms the read deadline, releases oversized receive buffers,
// and reports whether the next message is v3-framed. The previous
// message's borrowed views die here, so one large message does not pin
// a buffer its size for the rest of an idle connection's life.
func (c *Conn) startRecv() (v3 bool, err error) {
	if cap(c.rbuf) > ConnBufSize {
		c.rbuf = nil
	}
	if cap(c.r.buf) > ConnBufSize {
		c.r.buf = nil
	}
	if c.d != nil && c.timeout > 0 {
		if err := c.d.SetReadDeadline(time.Now().Add(c.timeout)); err != nil {
			return false, err
		}
	}
	first, err := c.r.r.Peek(1)
	if err != nil {
		return false, err
	}
	return first[0] == FrameMagic, nil
}

// readLineFrame is the v2 receive adapter: it reads and verifies one
// JSON line, then re-encodes the message as a v3 frame in the reused
// receive buffer and decodes that in place.
func (c *Conn) readLineFrame(f *Frame) error {
	m, err := c.readLineMessage()
	if err != nil {
		return err
	}
	if c.rbuf, err = AppendFrame(c.rbuf[:0], m); err != nil {
		return err
	}
	if _, err := DecodeFrame(c.rbuf, f); err != nil {
		return err
	}
	f.WireVersion = V2
	return nil
}

// readBinaryFrame assembles one complete v3 frame into the reused
// connection buffer and decodes it in place.
func (c *Conn) readBinaryFrame(f *Frame) error {
	br := c.r.r
	buf := c.rbuf[:0]
	magic, err := br.ReadByte()
	if err != nil {
		return err
	}
	buf = append(buf, magic)
	var plen uint64
	var shift uint
	for {
		if shift > 63 {
			return fmt.Errorf("protocol: malformed frame length prefix")
		}
		bt, err := br.ReadByte()
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		buf = append(buf, bt)
		plen |= uint64(bt&0x7f) << shift
		shift += 7
		if bt&0x80 == 0 {
			break
		}
	}
	if plen > maxLine {
		c.rbuf = buf
		return fmt.Errorf("protocol: frame payload length %d exceeds %d bytes", plen, maxLine)
	}
	// The buffer starts at most ConnBufSize and grows eightfold each time
	// the payload fills it: a peer that claims a large frame must send an
	// eighth of it before the connection holds memory its size. Eight,
	// not two, keeps a large frame to a few copies; doubling made a
	// 32 MiB receive about 30% slower than one up-front allocation
	// (BenchmarkRecvLargeFrame).
	total := len(buf) + int(plen) + 4
	for len(buf) < total {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(total, max(8*cap(buf), ConnBufSize)))
			copy(grown, buf)
			buf = grown
		}
		n, err := io.ReadFull(br, buf[len(buf):min(cap(buf), total)])
		buf = buf[:len(buf)+n]
		if err != nil {
			c.rbuf = buf
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	c.rbuf = buf
	if _, err := DecodeFrame(buf, f); err != nil {
		return err
	}
	if f.Type == "" {
		return fmt.Errorf("protocol: message without type")
	}
	return nil
}

// SendFrame relays a received frame in the connection's framing: its
// Raw() bytes verbatim on a v3 connection (no re-encode, no
// allocation), its materialized Message as a JSON line on a v2 one. The
// router uses it in both directions, so each hop keeps the client's
// framing.
func (c *Conn) SendFrame(f *Frame) error {
	if c.version != V3 {
		m, err := f.Message()
		if err != nil {
			return err
		}
		return c.Send(m)
	}
	return c.write(f.Raw())
}

// write writes pre-encoded bytes under the connection's write deadline.
func (c *Conn) write(b []byte) error {
	if c.d != nil && c.timeout > 0 {
		if err := c.d.SetWriteDeadline(time.Now().Add(c.timeout)); err != nil {
			return err
		}
	}
	_, err := c.rw.Write(b)
	return err
}

// sendBinary encodes m as one v3 frame through the pooled encoder and
// writes it. payload, when non-nil, overrides m.Payload without a
// string conversion.
func (c *Conn) sendBinary(m Message, payload []byte) error {
	e := encPool.Get().(*wireEncoder)
	defer encPool.Put(e)
	var err error
	e.bin, err = appendFrame(e.bin[:0], m, payload)
	if err != nil {
		return err
	}
	return c.write(e.bin)
}

// SendPayload sends m with its payload taken directly from a byte
// slice, avoiding the string copy Send's Message.Payload would force.
// m.Payload must be empty. The cluster shipper uses this to forward
// journal segments — already-encoded frame bytes — without copying
// them; binary-safe only under v3 framing (see Shipper).
func (c *Conn) SendPayload(m Message, payload []byte) error {
	if c.version == V3 {
		return c.sendBinary(m, payload)
	}
	// v2 JSON framing: the encoder copies the bytes into its buffer
	// before this call returns, so an unsafe no-copy view is sound.
	m.Payload = unsafeString(payload)
	return c.Send(m)
}

// unsafeString returns a string view of b without copying. The caller
// must guarantee b is neither mutated nor retained past the view's use.
func unsafeString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}
