// Package server implements the UUCS server (paper Figure 1): it stores
// testcases and results — journaled and snapshotted in the binary forms
// testcase.AppendBinary and core.AppendRunsBinary write, so restarts,
// promotions and merges decode them without parsing text, while sync
// replies stay text — registers clients by handing out
// globally unique identifiers for their machine snapshots, serves
// growing random samples of testcases at hot sync, and collects uploaded
// results for the analysis phase (Figure 2).
//
// Uploaded runs stay in that binary form in memory too, until someone
// reads them (runstore.go): each upload's text is transcoded straight
// into its binary batch, with no run built, and costs the server that
// batch, about 93 bytes a run; restart and failover promotion check
// each journaled batch and keep its bytes instead of building runs.
// Results decodes what is still binary, once, and keeps the decoded
// runs; WriteResults and SaveState stream the runs without keeping
// them; RunCount counts without decoding.
//
// The server is built for the volunteer-computing fault model the
// paper's fleet ran under: clients vanish mid-request, uploads are
// retried after lost acks, and the server process itself restarts. Idle
// connections are reaped after IdleTimeout, retried upload batches are
// deduplicated by (client, sequence number), registration is idempotent
// by client nonce, and — when a state directory is attached — every
// accepted batch is journaled to disk before it is acknowledged, so a
// crash after an ack can never lose the acked results.
//
// The ingest path is built for fleet-scale concurrency: per-client
// state (registration lookups, upload-sequence dedup) lives in hash
// shards so concurrent clients contend only when they collide on a
// shard, and journal appends go through a group-commit writer
// (journal.go) that amortizes one fsync across every op that arrived
// while the previous flush was in flight. Mutations follow a strict
// apply-then-journal-then-ack order: state changes become visible in
// memory (with the journal op already enqueued) before the fsync, and
// the client ack waits for the fsync — so a snapshot taken under all
// state locks covers exactly the ops queued before the seal it queues
// there, which is what keeps live compaction (SaveState) lossless.
package server

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"uucs/internal/core"
	"uucs/internal/protocol"
	"uucs/internal/stats"
	"uucs/internal/testcase"
)

// numShards is the number of per-client state shards. A power of two so
// shard selection is a mask; 16 comfortably exceeds the core counts the
// server runs on, so shard collisions — not the shard count — bound
// contention.
const numShards = 16

// shard holds the per-client state for the client ids that hash to it.
// Lock ordering: regMu < tcMu < shard.mu (ascending index) < runs.mu;
// any path holding several must acquire them in that order. The run
// store's decode lock, runs.decMu, comes before runs.mu and is never
// taken while holding any other of these.
type shard struct {
	mu sync.Mutex
	// clients maps registered client ids to their machine snapshots.
	clients map[string]protocol.Snapshot
	// lastSeq tracks, per client, the highest upload batch sequence
	// number whose journal op has been enqueued; retried batches at or
	// below it are duplicates.
	lastSeq map[string]uint64
	// locks counts acquisitions and waits counts the acquisitions that
	// found the mutex held — waits/locks is the USE utilization reading
	// for shard contention, exported via Stats and Telemetry.
	locks counter
	waits counter
}

// lock acquires the shard mutex, counting the acquisition and — when
// the fast path misses — the contended wait. TryLock then Lock costs
// one extra atomic on contention only, so the instrumentation cannot
// perturb the path it measures.
func (sh *shard) lock() {
	if !sh.mu.TryLock() {
		sh.waits.Add(1)
		sh.mu.Lock()
	}
	sh.locks.Add(1)
}

// Server is a UUCS server. All methods are safe for concurrent use; one
// goroutine is spawned per client connection.
//
// All server-side randomness (registration ids, testcase sampling) is
// derived from the seed and the request's own identity rather than
// drawn from a shared stream, so responses do not depend on the order
// concurrent clients happen to arrive in. This is what keeps a
// parallel fleet simulation bit-identical to a serial one.
type Server struct {
	// IdleTimeout bounds how long a connected client may stay silent
	// between requests (and how long a single request may take to
	// arrive or be answered). Zero means no limit. Set before Serve.
	IdleTimeout time.Duration

	// NodeID names this server when it runs as one node of a cluster
	// (internal/cluster). Purely observational: it labels the telemetry
	// snapshot so a cluster-wide USE verdict can say which node's
	// resource saturated. Empty for a standalone server. Set before
	// Serve.
	NodeID string

	// MaxProtocol caps the wire protocol version this server grants at
	// registration and accepts on the wire (0 means protocol.Version).
	// Setting protocol.V2 makes a v3-capable build behave as a pure v2
	// server — the rollback lever during a protocol rollout, and how
	// migration tests stand up "old" servers. Set before Serve.
	MaxProtocol int

	// JournalShip, when non-nil, is called by the journal writer after
	// each group-commit fsync with the batch's journal bytes, and the
	// batch's acks wait for it to return — semi-synchronous replication.
	// A cluster node points it at its follower's replica host, so every
	// acked op is on two disks before the client hears the ack; a ship
	// failure poisons the journal exactly like an fsync failure (stop
	// acking rather than ack unreplicated work). Set before OpenState.
	JournalShip func(segment []byte) error

	// JournalBatch caps how many ops one group-commit fsync may cover
	// (0 means the default, 64; 1 degenerates to PR 2's fsync-per-op
	// behavior and is the loadgen baseline). Set before OpenState.
	JournalBatch int
	// JournalSyncCost, when positive, stretches every journal fsync to
	// at least this long, modeling a slower storage device. Measurement
	// rigs use it to make group-commit behavior reproducible on
	// hardware whose real fsync is near-free; production leaves it
	// zero. Set before OpenState.
	JournalSyncCost time.Duration

	// JournalSegmentBytes rotates the active journal into a sealed,
	// numbered segment file (journal-NNNNNN.seg) once its size reaches
	// this many bytes. Sealed segments are immutable: restart replay
	// scans them in parallel. SaveState seals the active file too,
	// whatever its size, and deletes the segments its snapshot covers.
	// Zero means defaultJournalSegmentBytes. Set before OpenState.
	JournalSegmentBytes int64

	// CrashAfterJournalOps is a crash-test hook (uucs-server
	// -crash-after): once that many ops have been written to the
	// journal file, the process SIGKILLs itself between the buffered
	// write and the fsync — the exact window in which appended bytes
	// are not yet durable and no ack has been sent. A crash.marker file
	// is dropped in the state directory first so the e2e harness can
	// verify the kill landed inside the window. Zero (the default)
	// disables the hook. Set before OpenState.
	CrashAfterJournalOps int

	seed uint64
	// start anchors Telemetry's uptime (lifetime busy fractions are
	// normalized by it).
	start time.Time

	// tcMu guards the testcase store (read-mostly: every sync samples
	// it, additions are rare).
	tcMu      sync.RWMutex
	testcases []*tcSlot
	tcIndex   map[string]int

	// runs is the uploaded-run store (runstore.go): binary batches in
	// arrival order, decoded when first read.
	runs runStore

	// regMu serializes registration: the nonce table and the id
	// assignment probe. Registration happens once per client lifetime,
	// so this stays cold while per-message paths run on the shards.
	regMu sync.Mutex
	// nonces maps a registration nonce to the id it was assigned, so a
	// retried registration is answered with the same id.
	nonces map[string]string

	shards [numShards]shard

	// stateMu guards the journal writer handle and state directory.
	stateMu  sync.Mutex
	jw       *journalWriter
	stateDir string

	connMu sync.Mutex
	ln     net.Listener
	wg     sync.WaitGroup
	conns  map[*protocol.Conn]struct{}
	closed bool

	stats ingestCounters

	// replayStats describes the most recent LoadState (cold-path health,
	// surfaced by Stats and Telemetry next to the ingest readings).
	replayStats replayStats
}

// New returns an empty server. seed drives the random testcase sampling.
func New(seed uint64) *Server {
	s := &Server{
		seed:    seed,
		start:   time.Now(),
		tcIndex: make(map[string]int),
		nonces:  make(map[string]string),
		conns:   make(map[*protocol.Conn]struct{}),
	}
	for i := range s.shards {
		s.shards[i].clients = make(map[string]protocol.Snapshot)
		s.shards[i].lastSeq = make(map[string]uint64)
	}
	return s
}

// shardIndex returns the shard slot owning a client id, given as a
// string or as a borrowed frame view (both hash identically).
func shardIndex[T string | []byte](clientID T) int {
	return int(hashID(0xcbf29ce484222325, clientID) & (numShards - 1))
}

// shardFor returns the shard owning a client id.
func shardFor[T string | []byte](s *Server, clientID T) *shard {
	return &s.shards[shardIndex(clientID)]
}

// maxProto returns the highest protocol version this server speaks.
func (s *Server) maxProto() int {
	if s.MaxProtocol != 0 {
		return s.MaxProtocol
	}
	return protocol.Version
}

// journal returns the attached journal writer, nil when detached.
func (s *Server) journal() *journalWriter {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	return s.jw
}

// tcSlot is one stored testcase and its text encoding, rendered once,
// by the first sync that picks the testcase, so every later sync reply
// is built from those bytes. A slot is never mutated after it is stored
// except to fill text; replacing a testcase swaps the whole slot.
type tcSlot struct {
	tc *testcase.Testcase
	// text is the testcase's encoding, nil until first rendered.
	// Concurrent syncs (under tcMu.RLock) may race to fill it; they
	// store identical bytes.
	text atomic.Pointer[string]
}

// encoding returns the slot's text encoding, rendering and storing an
// exact-size copy on first use.
func (sl *tcSlot) encoding() (string, error) {
	if p := sl.text.Load(); p != nil {
		return *p, nil
	}
	text, err := testcase.EncodeString(sl.tc)
	if err != nil {
		return "", fmt.Errorf("testcase %s: %w", sl.tc.ID, err)
	}
	sl.text.Store(&text)
	return text, nil
}

// AddTestcases adds testcases to the store; new testcases can be added
// to the server at any time and propagate to clients at their next hot
// sync. Duplicate IDs are replaced. A testcase that is invalid, or that
// the text format cannot state as it is (testcase.AppendBinary), fails
// the whole batch, which then stores nothing. With a journal attached,
// the batch is journaled in binary form and durable when AddTestcases
// returns. Nothing is rendered to text here: a sync renders a testcase
// when it first picks it, and SaveState encodes the stored testcase
// itself, so a *Testcase must not be modified once added.
func (s *Server) AddTestcases(tcs ...*testcase.Testcase) error {
	rec, err := appendTestcaseBatch(nil, tcs)
	if err != nil {
		return err
	}
	if pending := s.storeTestcases(tcs, s.journal(), rec); pending != nil {
		return <-pending.done
	}
	return nil
}

// storeTestcases stores tcs, replacing same-ID entries, in slots whose
// text is not yet rendered. With a journal writer jw, a non-empty rec,
// the batch's journal record, is enqueued on it under the store's
// lock, and its pending request returned.
func (s *Server) storeTestcases(tcs []*testcase.Testcase, jw *journalWriter, rec []byte) *journalReq {
	slots := make([]tcSlot, len(tcs))
	s.tcMu.Lock()
	defer s.tcMu.Unlock()
	var pending *journalReq
	if jw != nil && len(rec) > 0 {
		// Enqueued under tcMu: state visible under this lock implies
		// the op is in the journal queue (the compaction invariant).
		pending = jw.enqueue(rec)
	}
	for i, tc := range tcs {
		slots[i].tc = tc
		if j, ok := s.tcIndex[tc.ID]; ok {
			s.testcases[j] = &slots[i]
			continue
		}
		s.tcIndex[tc.ID] = len(s.testcases)
		s.testcases = append(s.testcases, &slots[i])
	}
	return pending
}

// TestcaseCount returns the number of stored testcases.
func (s *Server) TestcaseCount() int {
	s.tcMu.RLock()
	defer s.tcMu.RUnlock()
	return len(s.testcases)
}

// Results returns all uploaded run records, in the order they were
// stored. The slice is the caller's; the runs are shared and must not
// be modified. Runs still held as binary batches (every run a restart
// or a promote restored, and every upload since the last read) are
// decoded here, on GOMAXPROCS goroutines and without holding up
// uploads, and stay decoded: the first read after a restart pays the
// decode that replay no longer does. Callers that need only the number
// of runs should call RunCount, which decodes nothing.
func (s *Server) Results() []*core.Run {
	return s.runs.decodeAll()
}

// WriteResults writes every uploaded run record to w as text, in the
// order they were stored: the bytes core.EncodeRuns(w, Results(),
// withLoad) writes, but without keeping a run it decodes. Runs still
// held as binary batches are decoded a block at a time and encoded on
// GOMAXPROCS goroutines, so a periodic export (uucs-server -out)
// leaves the store as compact as it found it; uploads keep flowing
// while it runs.
func (s *Server) WriteResults(w io.Writer, withLoad bool) error {
	return s.runs.scan(-1,
		func(p *runPiece) { p.buf = core.AppendRuns(p.buf[:0], p.runs, withLoad) },
		func(p *runPiece) error {
			_, err := w.Write(p.buf)
			return err
		})
}

// RunCount returns the number of uploaded run records held, without
// decoding any: len(Results()) at a fraction of the cost.
func (s *Server) RunCount() int {
	held, _ := s.runs.counts()
	return held
}

// ClientCount returns the number of registered clients.
func (s *Server) ClientCount() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.lock()
		n += len(sh.clients)
		sh.mu.Unlock()
	}
	return n
}

// Snapshot returns the registration snapshot for a client id.
func (s *Server) Snapshot(clientID string) (protocol.Snapshot, bool) {
	sh := shardFor(s, clientID)
	sh.lock()
	defer sh.mu.Unlock()
	snap, ok := sh.clients[clientID]
	return snap, ok
}

// hashMix folds v into an FNV-1a style running hash.
func hashMix(h, v uint64) uint64 {
	h ^= v
	h *= 0x100000001b3
	h ^= h >> 29
	return h
}

// hashID folds a string or byte slice into a running hash byte by
// byte; the two forms of one id hash identically.
func hashID[T string | []byte](h uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		h = hashMix(h, uint64(s[i]))
	}
	return hashMix(h, uint64(len(s))+1)
}

// snapshotHash derives a 64-bit identity from a registration snapshot
// and the server seed.
func snapshotHash(seed uint64, snap protocol.Snapshot) uint64 {
	h := hashMix(seed, 0x75756373) // "uucs"
	h = hashID(h, snap.Hostname)
	h = hashID(h, snap.OS)
	h = hashMix(h, math.Float64bits(snap.CPUGHz))
	h = hashMix(h, math.Float64bits(snap.MemMB))
	h = hashMix(h, math.Float64bits(snap.DiskGB))
	return h
}

// DeriveClientID returns the identifier a server with the given seed
// assigns to a snapshot before any collision disambiguation. The
// derivation is shared with the cluster router, which uses it to route
// a registration by the client-id hash the id will have — so the same
// snapshot registers with the same id whether the fleet talks to one
// server or to an N-node cluster, and ids never depend on the topology.
func DeriveClientID(seed uint64, snap protocol.Snapshot) string {
	return fmt.Sprintf("uucs-%016x", snapshotHash(seed, snap))
}

// register assigns a globally unique identifier to a snapshot. The id
// derives from the snapshot content, so distinct machines get the same
// id regardless of registration order; repeated registrations of an
// identical snapshot are disambiguated deterministically by remixing.
// A non-empty nonce makes registration idempotent: if the nonce was
// seen before, its original id is returned, so a client retrying after
// a lost response does not register twice.
func (s *Server) register(snap protocol.Snapshot, nonce string) (string, error) {
	s.regMu.Lock()
	if nonce != "" {
		if id, ok := s.nonces[nonce]; ok {
			s.regMu.Unlock()
			return id, nil
		}
	}
	h := snapshotHash(s.seed, snap)
	var id string
	var home *shard
	for {
		id = fmt.Sprintf("uucs-%016x", h)
		home = shardFor(s, id)
		home.lock()
		_, taken := home.clients[id]
		if !taken {
			home.clients[id] = snap
			home.mu.Unlock()
			break
		}
		home.mu.Unlock()
		h = hashMix(h, 0x9e3779b97f4a7c15)
	}
	if nonce != "" {
		s.nonces[nonce] = id
	}
	var pending *journalReq
	jw := s.journal()
	if jw != nil {
		op, err := appendClientRecord(nil, id, nonce, &snap, 0)
		if err == nil {
			// Enqueued while regMu pins the nonce/id assignment, so any
			// state copy taken under regMu covers this op.
			pending = jw.enqueue(op)
		} else {
			pending = failedReq(err)
		}
	}
	s.regMu.Unlock()
	if pending != nil {
		if err := <-pending.done; err != nil {
			// The registration never became durable and was never
			// acked; withdraw it so a crashless server does not carry
			// state its journal cannot explain.
			s.regMu.Lock()
			home.lock()
			delete(home.clients, id)
			home.mu.Unlock()
			if nonce != "" && s.nonces[nonce] == id {
				delete(s.nonces, nonce)
			}
			s.regMu.Unlock()
			return "", err
		}
	}
	s.stats.registrations.Add(1)
	return id, nil
}

// failedReq returns a journalReq that already carries err.
func failedReq(err error) *journalReq {
	r := &journalReq{done: make(chan error, 1)}
	r.done <- err
	return r
}

// sampleScratch is the reusable per-request working set of sample.
type sampleScratch struct {
	held    []bool   // held[i]: store index i is on the have-list
	unknown [][]byte // have-list ids the store does not hold
	cand    []int32  // candidate store indices, then the shuffled sample
}

var samplePool = sync.Pool{New: func() any { return new(sampleScratch) }}

// sample returns the encoded text of up to want testcases the client
// does not yet have, chosen uniformly at random, and how many it chose.
// Combined with the client's local random choice and Poisson execution
// times, this makes the fleet execute a random sample with respect to
// testcases, users, and times (§2). The shuffle stream derives from
// (seed, client, count of distinct have-list ids), never from shared
// state, so a client's sample sequence is the same whether the fleet
// runs serially or fully interleaved — and a retried sync with the same
// have-list receives the identical sample again. want must be positive.
//
// The selection works on store indices with pooled scratch, and the
// reply concatenates the stored encodings into one exact-size string,
// its only allocation once every chosen slot has been rendered.
func (s *Server) sample(clientID []byte, have [][]byte, want int) (string, int, error) {
	sc := samplePool.Get().(*sampleScratch)
	defer samplePool.Put(sc)
	s.tcMu.RLock()
	defer s.tcMu.RUnlock()

	// Distinct have-list ids, unknown ones included, seed the shuffle.
	sc.held = slices.Grow(sc.held[:0], len(s.testcases))[:len(s.testcases)]
	clear(sc.held)
	sc.unknown = sc.unknown[:0]
	distinct := 0
	for _, id := range have {
		i, ok := s.tcIndex[string(id)]
		switch {
		case !ok:
			sc.unknown = append(sc.unknown, id)
		case !sc.held[i]:
			sc.held[i] = true
			distinct++
		}
	}
	shuffle := want < len(s.testcases)-distinct
	if shuffle && len(sc.unknown) > 0 {
		slices.SortFunc(sc.unknown, bytes.Compare)
		distinct += len(slices.CompactFunc(sc.unknown, bytes.Equal))
	}
	clear(sc.unknown) // drop the borrowed frame views before pooling

	sc.cand = sc.cand[:0]
	for i, h := range sc.held {
		if !h {
			sc.cand = append(sc.cand, int32(i))
		}
	}
	if shuffle {
		h := hashID(hashMix(s.seed, 0x73616d70), clientID) // "samp"
		rng := stats.NewStream(hashMix(h, uint64(distinct)))
		rng.Shuffle(len(sc.cand), func(i, j int) {
			sc.cand[i], sc.cand[j] = sc.cand[j], sc.cand[i]
		})
		sc.cand = sc.cand[:want]
	}

	size := 0
	for _, i := range sc.cand {
		text, err := s.testcases[i].encoding()
		if err != nil {
			return "", 0, err
		}
		size += len(text)
	}
	var b strings.Builder
	b.Grow(size)
	for _, i := range sc.cand {
		b.WriteString(*s.testcases[i].text.Load())
	}
	return b.String(), len(sc.cand), nil
}

// addResults ingests an uploaded run batch f whose payload dispatch
// transcoded to batch, n runs in binary form. Seq 0 marks an
// unsequenced (legacy) upload, applied unconditionally. For Seq > 0 the
// batch is applied exactly once per client: a retried batch (Seq at or
// below the last applied) reports dup without storing anything. The
// run store copies batch into its arena, and a journaling server
// journals it as a jruns frame (uploadRecord), so replay reads it
// without parsing text. The record is built before the shard lock,
// duplicates included, since it must be ready to enqueue under it; it
// is the path's one allocation, and it outlives the connection's read
// buffer. The op is enqueued before the shard lock is released and the
// ack waits for the fsync covering it, so an acked batch survives a
// crash.
func (s *Server) addResults(f *protocol.Frame, batch []byte, n int) (dup bool, err error) {
	jw := s.journal()
	var op []byte
	if jw != nil {
		op = uploadRecord(f, batch)
	}
	sh := shardFor(s, f.ClientID)
	sh.lock()
	if f.Seq > 0 && f.Seq <= sh.lastSeq[string(f.ClientID)] {
		sh.mu.Unlock()
		if jw != nil {
			// The original upload may still be inside a group commit
			// (its client timed out and retried); the dup ack must not
			// claim durability before that commit lands.
			if err := jw.barrier(); err != nil {
				return false, err
			}
		}
		s.stats.dupBatches.Add(1)
		return true, nil
	}
	var pending *journalReq
	if jw != nil {
		pending = jw.enqueue(op)
	}
	if f.Seq > 0 {
		sh.lastSeq[string(f.ClientID)] = f.Seq
	}
	s.runs.mu.Lock()
	s.runs.add(batch, n)
	s.runs.mu.Unlock()
	sh.mu.Unlock()
	if pending != nil {
		if err := <-pending.done; err != nil {
			return false, err
		}
	}
	s.stats.batches.Add(1)
	s.stats.runs.Add(uint64(n))
	return false, nil
}

// Serve accepts connections on ln until Close. It blocks.
func (s *Server) Serve(ln net.Listener) error {
	s.connMu.Lock()
	s.ln = ln
	s.connMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.connMu.Lock()
			closed := s.closed
			s.connMu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		pc := protocol.NewConn(conn)
		pc.SetTimeout(s.IdleTimeout)
		s.connMu.Lock()
		if s.closed {
			s.connMu.Unlock()
			pc.Close()
			return nil
		}
		s.conns[pc] = struct{}{}
		s.connMu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(pc)
			s.connMu.Lock()
			delete(s.conns, pc)
			s.connMu.Unlock()
		}()
	}
}

// ListenAndServe listens on addr (e.g. "127.0.0.1:0") and serves in a
// background goroutine, returning the bound address.
func (s *Server) ListenAndServe(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go func() {
		_ = s.Serve(ln)
	}()
	return ln.Addr().String(), nil
}

// Close stops accepting, severs all live client connections (a crashing
// server does not say goodbye), flushes the journal, and waits for
// in-flight sessions.
func (s *Server) Close() error {
	s.connMu.Lock()
	s.closed = true
	ln := s.ln
	for pc := range s.conns {
		pc.Close()
	}
	s.connMu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	s.stateMu.Lock()
	jw := s.jw
	s.jw = nil
	s.stateMu.Unlock()
	if jw != nil {
		if cerr := jw.close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Crash stops the server the way a SIGKILL would, minus the process
// boundary: it severs every connection without a goodbye, refuses new
// ones, and abandons the journal writer without flushing its queue —
// queued ops error out un-synced and un-acked, exactly the state a
// power cut leaves behind. The journal file keeps whatever was already
// written (possibly a torn tail), so a restart or a promoted follower
// recovers from it like from a real crash. Cluster chaos tests use
// this to kill whole nodes in-process under the race detector.
func (s *Server) Crash() {
	s.connMu.Lock()
	s.closed = true
	ln := s.ln
	for pc := range s.conns {
		pc.Close()
	}
	s.connMu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.stateMu.Lock()
	jw := s.jw
	s.jw = nil
	s.stateMu.Unlock()
	if jw != nil {
		// Poison first so in-flight handlers blocked on a pending ack
		// are released with an error (never an ack), then wait for them.
		jw.abort()
	}
	s.wg.Wait()
}

// handle runs one client session: any number of requests until EOF,
// a broken connection, or an idle timeout. Each message is received as
// a borrowed frame — RecvFrame converts v2 lines at the edge — and
// mirrors the request's framing onto the connection, so every reply
// (errors included) goes back the way the request came.
func (s *Server) handle(conn *protocol.Conn) {
	defer conn.Close()
	for {
		f, err := conn.RecvFrame()
		if err != nil {
			return // EOF, broken connection, or idle timeout
		}
		if f.WireVersion == protocol.V3 {
			s.stats.v3Msgs.Add(1)
		} else {
			s.stats.v2Msgs.Add(1)
		}
		if err := s.dispatch(conn, f); err != nil {
			// Every in-band rejection — unknown client, undecodable
			// payload, bad version — lands here; the counter is the USE
			// errors reading for the wire.
			s.stats.rejects.Add(1)
			_ = conn.SendError(err)
		}
	}
}

// uploadBufs pools the buffers dispatch transcodes uploads into.
var uploadBufs = sync.Pool{New: func() any { return new([]byte) }}

// dispatch routes one received frame. The hot path — a results upload
// — runs on borrowed views: the client id is checked and sharded as
// bytes, and the payload view is transcoded straight into a pooled
// binary batch (core.TranscodeRuns) before the dedup, building no run;
// addResults stores and journals that batch.
func (s *Server) dispatch(conn *protocol.Conn, f *protocol.Frame) error {
	if f.WireVersion == protocol.V3 && s.maxProto() < protocol.V3 {
		return fmt.Errorf("protocol v3 disabled on this server (max v%d)", s.maxProto())
	}
	switch f.Type {
	case protocol.TypeRegister:
		if f.Ver < protocol.V2 || f.Ver > protocol.Version {
			return fmt.Errorf("unsupported protocol version %d", f.Ver)
		}
		// Negotiate: grant the requested version, capped at what this
		// server speaks. The granted version rides the registered reply;
		// the client frames every subsequent message in it.
		ver := min(f.Ver, s.maxProto())
		snap, err := f.DecodeSnapshot()
		if err != nil {
			return err
		}
		if snap == nil {
			return fmt.Errorf("register without snapshot")
		}
		if err := snap.Validate(); err != nil {
			return err
		}
		id, err := s.register(*snap, string(f.Nonce))
		if err != nil {
			return err
		}
		return conn.Send(protocol.Message{Type: protocol.TypeRegistered, ClientID: id, Ver: ver})

	case protocol.TypeSync:
		if err := s.checkClient(f.ClientID); err != nil {
			return err
		}
		want := f.Want
		if want <= 0 {
			want = 16
		}
		payload, n, err := s.sample(f.ClientID, f.Have, want)
		if err != nil {
			return err
		}
		return conn.Send(protocol.Message{Type: protocol.TypeTestcases, Payload: payload, Count: n})

	case protocol.TypeResults:
		if err := s.checkClient(f.ClientID); err != nil {
			return err
		}
		buf := uploadBufs.Get().(*[]byte)
		defer func() {
			if cap(*buf) <= protocol.ConnBufSize {
				uploadBufs.Put(buf)
			}
		}()
		batch, n, err := core.TranscodeRuns((*buf)[:0], f.Payload)
		if err != nil {
			return fmt.Errorf("bad results payload: %w", err)
		}
		*buf = batch
		dup, err := s.addResults(f, batch, n)
		if err != nil {
			return err
		}
		return conn.Send(protocol.Message{Type: protocol.TypeAck, Count: n, Seq: f.Seq, Dup: dup})

	default:
		return fmt.Errorf("unexpected message type %q", f.Type)
	}
}

// checkClient reports whether a borrowed client-id view is registered;
// the map lookup through string(id) does not allocate.
func (s *Server) checkClient(id []byte) error {
	sh := shardFor(s, id)
	sh.lock()
	defer sh.mu.Unlock()
	if _, ok := sh.clients[string(id)]; !ok {
		return fmt.Errorf("unknown client %q (register first)", id)
	}
	return nil
}
