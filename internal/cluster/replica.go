package cluster

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"uucs/internal/chaos"
	"uucs/internal/protocol"
	"uucs/internal/server"
)

// Transport abstracts how cluster pieces reach each other, so the same
// router/replica code runs over loopback TCP (real deployments, the
// cluster-smoke job) and over chaos.Network in-memory pipes (the chaos
// suite, where nodes crash and partition under the race detector).
type Transport interface {
	Listen(addr string) (net.Listener, error)
	Dial(addr string) (net.Conn, error)
}

// TCPTransport is the real-network transport.
type TCPTransport struct {
	// DialTimeout bounds each dial (default 5s).
	DialTimeout time.Duration
}

func (t TCPTransport) Listen(addr string) (net.Listener, error) {
	return net.Listen("tcp", addr)
}

func (t TCPTransport) Dial(addr string) (net.Conn, error) {
	d := t.DialTimeout
	if d <= 0 {
		d = 5 * time.Second
	}
	return net.DialTimeout("tcp", addr, d)
}

// ChaosTransport runs the cluster over a chaos.Network, whose SetDown
// partitions whole nodes mid-conversation.
type ChaosTransport struct {
	Net *chaos.Network
}

func (t ChaosTransport) Listen(addr string) (net.Listener, error) {
	return t.Net.Listen(addr)
}

func (t ChaosTransport) Dial(addr string) (net.Conn, error) {
	return t.Net.Dial(addr)
}

// shipTimeout bounds one ship round-trip (and the dial behind it) so a
// partitioned follower stalls the primary's journal writer only
// briefly before the partition degrades instead of wedging ingest.
const shipTimeout = 2 * time.Second

// shipPieceBytes bounds the journal bytes one ship frame carries,
// leaving headroom under protocol.MaxMessageBytes for the other fields.
// A variable so tests can force the cut on small inputs.
var shipPieceBytes = protocol.MaxMessageBytes - 1<<10

// Shipper streams a primary's committed journal segments to its
// follower's ReplicaHost, in order, over one persistent connection.
// Segments are numbered contiguously from 1 so the follower can refuse
// gaps; a retried segment whose ack was lost is acked idempotently. A
// segment too large for one frame (a restarted node's bootstrap, or a
// large group commit) is cut at frame ends into pieces of at most
// shipPieceBytes, each shipped as a segment of its own.
//
// Failure policy — the heart of the cluster's durability story:
//
//   - Transport failures (follower crashed, partitioned, timed out)
//     DEGRADE the partition: Ship reports the degradation once via
//     onDegrade and then returns nil forever, so the primary keeps
//     acking unreplicated rather than refusing all writes. Every
//     already-acked op is still on the primary's own fsynced journal;
//     the partition simply tolerates no further failure until the
//     follower is rebuilt (documented in DESIGN.md).
//   - Protocol violations (the follower NACKs, or acks the wrong
//     sequence) POISON the journal by returning an error: something is
//     structurally wrong and acking more work would be lying.
//
// Ship is called from the journal writer's single commit goroutine (and
// once at node start for the bootstrap segment), so calls are already
// serialized; the mutex exists for Close and the degraded probe.
type Shipper struct {
	tr        Transport
	addr      string
	node      string
	onDegrade func(error)

	mu       sync.Mutex
	conn     *protocol.Conn
	seq      uint64
	degraded bool
	closed   bool
}

// NewShipper returns a shipper for node's segments toward the replica
// host at addr. onDegrade (optional) fires exactly once if replication
// degrades, with the causing error.
func NewShipper(tr Transport, node, addr string, onDegrade func(error)) *Shipper {
	return &Shipper{tr: tr, addr: addr, node: node, onDegrade: onDegrade}
}

// Ship sends one journal segment to the follower, in pieces that each
// fit one frame, and waits for the durable ack of each. Safe to pass as
// Server.JournalShip. A single record larger than a piece cannot be
// cut: it ships alone, and if it outgrows a frame the send fails like a
// transport failure and replication degrades.
func (sh *Shipper) Ship(segment []byte) error {
	for len(segment) > 0 {
		n := pieceLen(segment)
		if err := sh.shipPiece(segment[:n]); err != nil {
			return err
		}
		segment = segment[n:]
	}
	return nil
}

// pieceLen returns the length of the first piece of segment: whole
// frames totalling at most shipPieceBytes, or the first frame alone if
// it is larger. Bytes that do not cut as frames go as one piece.
func pieceLen(segment []byte) int {
	if len(segment) <= shipPieceBytes {
		return len(segment)
	}
	n := 0
	for n < len(segment) {
		fl, err := protocol.FrameLen(segment[n:])
		if err != nil {
			return len(segment)
		}
		if n > 0 && n+fl > shipPieceBytes {
			break
		}
		n += fl
	}
	return n
}

// shipPiece sends one piece as the next segment and waits for its ack.
func (sh *Shipper) shipPiece(piece []byte) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.degraded || sh.closed {
		return nil
	}
	sh.seq++
	msg := protocol.Message{Type: protocol.TypeShip, Node: sh.node, Seq: sh.seq}
	ack, err := sh.roundTrip(msg, piece)
	if err != nil {
		// Transport-level failure, already retried once on a fresh
		// connection: the follower is gone. Degrade, keep serving.
		sh.degraded = true
		sh.dropConn()
		if sh.onDegrade != nil {
			sh.onDegrade(err)
		}
		return nil
	}
	if perr := protocol.AsError(ack); perr != nil {
		return fmt.Errorf("cluster: follower refused segment %d: %w", sh.seq, perr)
	}
	if ack.Type != protocol.TypeShipAck || ack.Seq != sh.seq {
		return fmt.Errorf("cluster: follower acked segment %d, shipped %d", ack.Seq, sh.seq)
	}
	return nil
}

// roundTrip sends msg carrying payload and reads the reply, redialing
// once if the cached connection broke (covers the follower restarting
// between segments, and the retried segment dedups by seq on the other
// side). The payload rides as borrowed bytes — no copy per segment.
func (sh *Shipper) roundTrip(msg protocol.Message, payload []byte) (protocol.Message, error) {
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		if sh.conn == nil {
			raw, err := sh.tr.Dial(sh.addr)
			if err != nil {
				lastErr = err
				continue
			}
			sh.conn = protocol.NewConn(raw)
			sh.conn.SetTimeout(shipTimeout)
			// Shipping always speaks v3: journal segments hold binary
			// frames, and only the v3 framing is binary-safe (the
			// v2 JSON framing would mangle them into U+FFFD).
			sh.conn.SetVersion(protocol.V3)
		}
		if err := sh.conn.SendPayload(msg, payload); err != nil {
			lastErr = err
			sh.dropConn()
			continue
		}
		reply, err := sh.conn.Recv()
		if err != nil {
			lastErr = err
			sh.dropConn()
			continue
		}
		return reply, nil
	}
	return protocol.Message{}, lastErr
}

func (sh *Shipper) dropConn() {
	if sh.conn != nil {
		sh.conn.Close()
		sh.conn = nil
	}
}

// Degraded reports whether replication has degraded.
func (sh *Shipper) Degraded() bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.degraded
}

// Close drops the connection; subsequent Ships are no-ops.
func (sh *Shipper) Close() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.closed = true
	sh.dropConn()
}

// ReplicaDirName returns the directory (under the follower's state
// root) holding the replica journal for the named primary. The
// directory is itself a valid server state dir — journal.txt only — so
// promote-on-crash is just server.OpenState over it.
func ReplicaDirName(primary string) string {
	return "replica-" + primary
}

// ReplicaHost is the follower half of journal shipping: it accepts
// TypeShip segments from any number of primaries, appends each to that
// primary's replica journal, fsyncs, and only then acks. Segment
// sequence numbers must be contiguous per primary; a duplicate (retry
// after a lost ack) is acked without re-appending, a gap is refused —
// a gap means bytes the primary already acked to clients could be
// missing here, and accepting it would make promote-on-crash lossy.
type ReplicaHost struct {
	root string
	ln   net.Listener
	wg   sync.WaitGroup

	mu      sync.Mutex
	lastSeq map[string]uint64
	files   map[string]*os.File
	sealed  map[string]bool
	conns   map[*protocol.Conn]struct{}
	closed  bool
}

// NewReplicaHost serves replica journals under root, listening on addr
// via tr. It returns the bound address.
func NewReplicaHost(tr Transport, addr, root string) (*ReplicaHost, string, error) {
	ln, err := tr.Listen(addr)
	if err != nil {
		return nil, "", err
	}
	h := &ReplicaHost{
		root:    root,
		ln:      ln,
		lastSeq: make(map[string]uint64),
		files:   make(map[string]*os.File),
		sealed:  make(map[string]bool),
		conns:   make(map[*protocol.Conn]struct{}),
	}
	h.wg.Add(1)
	go h.serve()
	return h, ln.Addr().String(), nil
}

func (h *ReplicaHost) serve() {
	defer h.wg.Done()
	for {
		conn, err := h.ln.Accept()
		if err != nil {
			return
		}
		pc := protocol.NewConn(conn)
		h.mu.Lock()
		if h.closed {
			h.mu.Unlock()
			pc.Close()
			return
		}
		h.conns[pc] = struct{}{}
		h.mu.Unlock()
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			h.handle(pc)
			h.mu.Lock()
			delete(h.conns, pc)
			h.mu.Unlock()
		}()
	}
}

func (h *ReplicaHost) handle(conn *protocol.Conn) {
	defer conn.Close()
	for {
		f, err := conn.RecvFrame()
		if err != nil {
			return
		}
		// The segment bytes are a borrowed view of the connection's read
		// buffer; apply writes them to the replica file before the next
		// RecvFrame invalidates the view, so no copy is ever made. (A
		// v2-era shipper still works — RecvFrame converts its JSON line
		// to a frame — but can only carry text segments.)
		if f.Type != protocol.TypeShip || len(f.Node) == 0 || f.Seq == 0 {
			_ = conn.SendError(fmt.Errorf("cluster: malformed ship"))
			return
		}
		dup, err := h.apply(string(f.Node), f.Seq, f.Payload)
		if err != nil {
			_ = conn.SendError(err)
			return
		}
		if err := conn.Send(protocol.Message{
			Type: protocol.TypeShipAck, Seq: f.Seq, Dup: dup,
		}); err != nil {
			return
		}
	}
}

// apply makes one segment durable (or recognizes it as a replay).
func (h *ReplicaHost) apply(primary string, seq uint64, segment []byte) (dup bool, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return false, fmt.Errorf("cluster: replica host closed")
	}
	if h.sealed[primary] {
		return false, fmt.Errorf("cluster: replica for %s is sealed (fenced for promotion)", primary)
	}
	last := h.lastSeq[primary]
	if seq <= last {
		return true, nil // retry of a segment already durable here
	}
	if seq != last+1 {
		return false, fmt.Errorf("cluster: segment gap for %s: have %d, got %d", primary, last, seq)
	}
	f := h.files[primary]
	if f == nil {
		dir := filepath.Join(h.root, ReplicaDirName(primary))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return false, err
		}
		_, journal := server.StateFilePaths(dir)
		f, err = os.OpenFile(journal, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return false, err
		}
		h.files[primary] = f
	}
	if _, err := f.Write(segment); err != nil {
		return false, err
	}
	if err := f.Sync(); err != nil {
		return false, err
	}
	h.lastSeq[primary] = seq
	return false, nil
}

// ReplicaDir returns the state directory holding the replica journal
// for the named primary (whether or not anything was shipped yet).
func (h *ReplicaHost) ReplicaDir(primary string) string {
	return filepath.Join(h.root, ReplicaDirName(primary))
}

// Seal fences the named primary's replica before promotion: its file
// is closed and every further segment from that primary is refused.
// Refusal poisons the old primary's journal through the shipper, so a
// partitioned-but-alive primary stops acking the moment its replica is
// promoted — the split-brain door closes from the replica side.
func (h *ReplicaHost) Seal(primary string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sealed[primary] = true
	if f := h.files[primary]; f != nil {
		f.Close()
		delete(h.files, primary)
	}
}

// Close stops accepting, severs live shipping connections, and closes
// replica files.
func (h *ReplicaHost) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	files := h.files
	h.files = make(map[string]*os.File)
	for pc := range h.conns {
		pc.Close()
	}
	h.mu.Unlock()
	err := h.ln.Close()
	h.wg.Wait()
	for _, f := range files {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
