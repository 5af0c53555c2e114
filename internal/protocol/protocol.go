// Package protocol defines the wire protocol between UUCS clients and
// the server (paper Figure 1). There are exactly two interactions, both
// initiated by the client: registration, where the client presents a
// detailed hardware/software snapshot and receives a globally unique
// identifier, and hot sync, where the client downloads new testcases (a
// growing random sample) and uploads new results.
//
// Messages are JSON objects, one per line, over a TCP connection.
// Testcases and run records travel inside messages in their text-store
// encodings, so the same bytes that sit in the on-disk stores cross the
// wire.
//
// Version 2 hardens the protocol for the volunteer-computing fault
// model (clients crash, links flap, the server restarts mid-study):
//
//   - Every message carries a mandatory CRC32 checksum — a message
//     without one is rejected — so corrupted bytes are detected and
//     refused instead of silently ingested.
//   - Registration carries a client-chosen nonce, making it idempotent:
//     a retried registration whose first response was lost receives the
//     same identifier again.
//   - Result uploads carry a per-client sequence number and the ack
//     echoes it, making uploads idempotent: a retried batch whose ack
//     was lost is detected as a duplicate and not double-counted.
//   - Conn supports per-message read/write deadlines so neither side
//     can be pinned forever by a stalled peer.
//
// Version 3 (binary.go) keeps v2's message semantics but replaces the
// text frame with length-prefixed binary framing (varint fields, CRC32
// trailer) and a zero-copy decode path. Both framings coexist on one
// port: receivers sniff the first byte of each frame and reply in
// kind, and registration negotiates the version a client should speak.
// Behind RecvFrame there is one message shape, the v3 Frame: a v2 line
// is converted to one at receive time.
package protocol

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"strconv"
	"sync"
	"time"
)

// Version is the highest protocol version this build speaks.
// Registration negotiates: a client requests a version and the server
// grants min(requested, Version), rejecting versions it has never
// spoken. V2 peers therefore keep working against a V3 build.
const Version = V3

// MsgType discriminates protocol messages.
type MsgType string

// Message types.
const (
	// TypeRegister carries a machine snapshot; the server answers with
	// TypeRegistered.
	TypeRegister   MsgType = "register"
	TypeRegistered MsgType = "registered"
	// TypeSync requests a batch of new testcases; the server answers
	// with TypeTestcases.
	TypeSync      MsgType = "sync"
	TypeTestcases MsgType = "testcases"
	// TypeResults uploads run records; the server answers with TypeAck.
	TypeResults MsgType = "results"
	TypeAck     MsgType = "ack"
	// TypeError reports a server-side failure.
	TypeError MsgType = "error"
	// TypeShip carries one committed journal segment from a cluster
	// primary to its follower replica; the follower answers with
	// TypeShipAck once the segment is durable. Seq numbers segments
	// contiguously per primary so a follower can refuse gaps.
	TypeShip    MsgType = "ship"
	TypeShipAck MsgType = "ship-ack"
	// TypeJournalMeta never crosses the wire between peers: it is the
	// self-identifying header record a server writes at the head of a
	// fresh journal file and of every snapshot, encoded as an ordinary
	// frame (Ver carries the journal format version) like every other
	// record in those files.
	TypeJournalMeta MsgType = "jmeta"
	// TypeJournalRuns never crosses the wire either: it is the journal
	// record of an accepted upload — the uploading ClientID, the batch
	// Seq, and the batch's runs in binary form (core.AppendRunsBinary)
	// as Payload. A server refuses it from a peer like any type it does
	// not serve.
	TypeJournalRuns MsgType = "jruns"
	// TypeJournalTestcases is journal-only as well: the record of a
	// testcase batch, the testcases in binary form
	// (testcase.AppendBinary) back to back as Payload, so replay reads
	// them without parsing text. Sync replies stay TypeTestcases text.
	// A server refuses it from a peer like any type it does not serve.
	TypeJournalTestcases MsgType = "jtestcases"
)

// Snapshot is the detailed machine description presented at
// registration (paper §2: "providing it with a detailed snapshot of the
// hardware and software of the client machine").
type Snapshot struct {
	Hostname string   `json:"hostname"`
	OS       string   `json:"os"`
	CPUGHz   float64  `json:"cpu_ghz"`
	MemMB    float64  `json:"mem_mb"`
	DiskGB   float64  `json:"disk_gb"`
	Apps     []string `json:"apps,omitempty"`
}

// Validate checks the snapshot for the fields the server needs to
// associate results with hardware classes.
func (s Snapshot) Validate() error {
	if s.Hostname == "" {
		return fmt.Errorf("protocol: snapshot missing hostname")
	}
	if s.CPUGHz <= 0 || s.MemMB <= 0 || !finite(s.CPUGHz) || !finite(s.MemMB) || !finite(s.DiskGB) {
		return fmt.Errorf("protocol: snapshot has implausible hardware (cpu %g GHz, mem %g MB, disk %g GB)", s.CPUGHz, s.MemMB, s.DiskGB)
	}
	return nil
}

// finite reports whether v is neither NaN nor an infinity. A v3 frame
// carries the hardware figures as raw float64 bits, so unlike a JSON
// line it can deliver either.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Message is the single wire envelope.
type Message struct {
	Type MsgType `json:"type"`
	// Ver is the protocol version (TypeRegister only).
	Ver int `json:"ver,omitempty"`
	// Snapshot accompanies TypeRegister.
	Snapshot *Snapshot `json:"snapshot,omitempty"`
	// Nonce is a client-chosen registration token (TypeRegister). The
	// server keys registrations by it, so a retried registration whose
	// response was lost yields the same id instead of a duplicate.
	Nonce string `json:"nonce,omitempty"`
	// ClientID identifies the client after registration.
	ClientID string `json:"client_id,omitempty"`
	// Have lists testcase IDs already held (TypeSync), so the server
	// extends the client's random sample instead of resending.
	Have []string `json:"have,omitempty"`
	// Want is the number of new testcases requested (TypeSync).
	Want int `json:"want,omitempty"`
	// Payload carries text-encoded testcases (TypeTestcases) or run
	// records (TypeResults); in the journal-only records, binary runs
	// (TypeJournalRuns) or binary testcases (TypeJournalTestcases).
	Payload string `json:"payload,omitempty"`
	// Count reports how many items were accepted (TypeAck) or returned
	// (TypeTestcases).
	Count int `json:"count,omitempty"`
	// Seq is the client's upload batch sequence number (TypeResults);
	// the server's TypeAck echoes it. Sequence numbers start at 1 and
	// increase, so the server can drop retried duplicates.
	Seq uint64 `json:"seq,omitempty"`
	// Dup marks an ack for a batch the server had already applied
	// (TypeAck): the client's retry was harmless.
	Dup bool `json:"dup,omitempty"`
	// Node names the cluster node a shipped segment belongs to
	// (TypeShip: the shipping primary's node id, which keys the
	// follower's per-primary replica directory).
	Node string `json:"node,omitempty"`
	// Err is the error text (TypeError).
	Err string `json:"err,omitempty"`
	// Sum is the CRC32 (IEEE) of the message's JSON encoding with Sum
	// itself absent. Send always sets it, and Recv rejects any message
	// without one, so in-flight byte corruption surfaces as an error
	// instead of bad data — including corruption that destroys the sum
	// field itself. A pointer, so absence (rejected) is distinguishable
	// from a genuine CRC of zero (verified like any other value).
	Sum *uint32 `json:"sum,omitempty"`
}

// wireEncoder is a pooled buffer + JSON encoder pair for the message
// hot path. Encoding a Message through a pooled encoder instead of
// json.Marshal removes the per-message output allocation; the encoder's
// trailing newline doubles as the wire frame terminator.
type wireEncoder struct {
	buf     bytes.Buffer
	enc     *json.Encoder
	scratch [24]byte // strconv staging for the spliced sum digits
	bin     []byte   // v3 frame staging, reused across sends
}

var encPool = sync.Pool{New: func() any {
	e := &wireEncoder{}
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

// encodeSumless encodes m with Sum forced absent into e.buf as one
// newline-terminated line — the canonical form both checksum ends hash.
func (e *wireEncoder) encodeSumless(m Message) error {
	m.Sum = nil
	e.buf.Reset()
	return e.enc.Encode(m)
}

// checksum returns the CRC32 of m's canonical encoding with Sum absent.
func checksum(m Message) (uint32, error) {
	e := encPool.Get().(*wireEncoder)
	defer encPool.Put(e)
	if err := e.encodeSumless(m); err != nil {
		return 0, err
	}
	b := e.buf.Bytes()
	return crc32.ChecksumIEEE(b[:len(b)-1]), nil // exclude Encode's newline
}

// deadliner is the deadline surface of net.Conn; net.Pipe and TCP
// connections both implement it.
type deadliner interface {
	SetReadDeadline(t time.Time) error
	SetWriteDeadline(t time.Time) error
}

// Conn frames Messages over any stream, in either wire version.
// Receives auto-detect the framing per message; sends use the version
// selected by SetVersion (or mirrored from the last received frame),
// defaulting to V2 so an un-negotiated sender is safe against any peer.
type Conn struct {
	rw      io.ReadWriter
	r       *lineReader
	c       io.Closer
	d       deadliner
	timeout time.Duration
	version int    // send framing: V3, or V2 when unset
	rbuf    []byte // frame assembly (v3) or conversion (v2) buffer, reused across receives
	frame   Frame  // the connection-owned decoded frame RecvFrame returns
}

// maxLine bounds a single message; testcase payloads are sizable but a
// 2000-testcase store is still only a few MB.
const maxLine = 64 << 20

// MaxMessageBytes is maxLine for other packages: the largest v2 line,
// or v3 frame payload (the tagged fields between the length prefix and
// the CRC), a message may have. The server cuts journal records that
// would exceed it.
const MaxMessageBytes = maxLine

// NewConn wraps a stream. If rw also implements io.Closer, Close closes
// it; if it implements deadline setting (net.Conn does), SetTimeout
// enables per-message deadlines. Network connections get the
// protocol's transport tuning (TuneConn) applied automatically.
func NewConn(rw io.ReadWriter) *Conn {
	c, _ := rw.(io.Closer)
	d, _ := rw.(deadliner)
	if nc, ok := rw.(net.Conn); ok {
		TuneConn(nc)
	}
	return &Conn{rw: rw, r: newLineReader(rw), c: c, d: d}
}

// SetTimeout sets the per-message I/O deadline: every subsequent Send
// must complete within d of starting, and every Recv must receive a
// full message within d of being called — which doubles as an idle
// timeout for a server waiting on a silent client. Zero disables
// deadlines. It is a no-op if the underlying stream cannot set
// deadlines.
func (c *Conn) SetTimeout(d time.Duration) {
	c.timeout = d
}

// Send writes one message in the connection's framing. Under v3 the
// message is encoded as one binary frame through a pooled scratch
// buffer (steady state: zero allocations). Under v2 the message is
// encoded exactly once through a pooled buffer: the CRC is computed
// over the sum-less encoding, then the sum field is spliced in before
// the closing brace, so the hot ingest path neither marshals twice nor
// allocates per message.
func (c *Conn) Send(m Message) error {
	if c.version == V3 {
		return c.sendBinary(m, nil)
	}
	e := encPool.Get().(*wireEncoder)
	defer encPool.Put(e)
	if err := e.encodeSumless(m); err != nil {
		return fmt.Errorf("protocol: marshal: %w", err)
	}
	b := e.buf.Bytes() // `{...}` + '\n'
	sum := crc32.ChecksumIEEE(b[:len(b)-1])
	// Splice `,"sum":N` in place of the final `}\n`. Receivers verify by
	// re-encoding the decoded message sum-less, so the spliced frame is
	// checksum-equivalent to a full marshal with Sum set.
	e.buf.Truncate(len(b) - 2)
	e.buf.WriteString(`,"sum":`)
	e.buf.Write(strconv.AppendUint(e.scratch[:0], uint64(sum), 10))
	e.buf.WriteString("}\n")
	if e.buf.Len() > maxLine {
		return fmt.Errorf("protocol: message too large (%d bytes)", e.buf.Len())
	}
	return c.write(e.buf.Bytes())
}

// Recv reads one message in either framing, verifies its integrity
// (checksum field for v2, CRC trailer for v3), and returns it fully
// materialized. A v2 message comes back exactly as decoded, Sum
// included, without the frame conversion RecvFrame applies. Servers
// prefer RecvFrame, which skips the materialization.
func (c *Conn) Recv() (Message, error) {
	v3, err := c.startRecv()
	if err != nil {
		return Message{}, err
	}
	if !v3 {
		m, err := c.readLineMessage()
		if err != nil {
			return Message{}, err
		}
		c.version = V2
		return m, nil
	}
	if err := c.readBinaryFrame(&c.frame); err != nil {
		return Message{}, err
	}
	c.version = V3
	return c.frame.Message()
}

// readLineMessage reads one v2 JSON line and decodes it, verifying its
// checksum.
func (c *Conn) readLineMessage() (Message, error) {
	var m Message
	line, err := c.r.readLine()
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(line, &m); err != nil {
		return m, fmt.Errorf("protocol: bad message: %w", err)
	}
	if m.Type == "" {
		return m, fmt.Errorf("protocol: message without type")
	}
	if m.Sum == nil {
		return m, fmt.Errorf("protocol: message without checksum")
	}
	want, err := checksum(m)
	if err != nil {
		return m, fmt.Errorf("protocol: marshal: %w", err)
	}
	if want != *m.Sum {
		return m, fmt.Errorf("protocol: checksum mismatch (message corrupted in flight)")
	}
	return m, nil
}

// lineReader is a thin alias over bufio.Reader that reassembles long
// lines and bounds them at maxLine. The assembly buffer persists across
// reads — each Conn has exactly one in-flight line, so reuse is safe
// and the steady state reads without allocating.
type lineReader struct {
	r   *bufio.Reader
	buf []byte
}

func newLineReader(r io.Reader) *lineReader {
	return &lineReader{r: bufio.NewReaderSize(r, ConnBufSize)}
}

// readLine returns the next newline-terminated line, excluding the
// newline. The returned slice is valid only until the next readLine.
func (l *lineReader) readLine() ([]byte, error) {
	l.buf = l.buf[:0]
	for {
		chunk, isPrefix, err := l.r.ReadLine()
		if err != nil {
			return nil, err
		}
		l.buf = append(l.buf, chunk...)
		if len(l.buf) > maxLine {
			return nil, fmt.Errorf("protocol: line exceeds %d bytes", maxLine)
		}
		if !isPrefix {
			return l.buf, nil
		}
	}
}

// Close closes the underlying stream when it is closable.
func (c *Conn) Close() error {
	if c.c != nil {
		return c.c.Close()
	}
	return nil
}

// SendError is a server helper for reporting a failure in-band. The
// reply goes out in the framing of the last received message, so a v2
// client is never answered in a framing it cannot parse.
func (c *Conn) SendError(err error) error {
	return c.Send(Message{Type: TypeError, Err: err.Error()})
}

// AsError converts a TypeError message into a Go error, passing other
// messages through.
func AsError(m Message) error {
	if m.Type == TypeError {
		return fmt.Errorf("protocol: server error: %s", m.Err)
	}
	return nil
}
