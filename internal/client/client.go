package client

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"time"

	"uucs/internal/apps"
	"uucs/internal/comfort"
	"uucs/internal/core"
	"uucs/internal/protocol"
	"uucs/internal/stats"
	"uucs/internal/testcase"
)

// Backoff parameterizes the client's capped exponential backoff with
// jitter. Attempt n (n >= 1) waits roughly Base<<(n-1), jittered
// uniformly in [0.5x, 1.5x) and capped at Max, before retrying.
type Backoff struct {
	// Base is the first retry delay.
	Base time.Duration
	// Max caps the delay growth.
	Max time.Duration
	// Attempts is the total number of tries (1 = no retries).
	Attempts int
}

// DefaultBackoff is the client's stock retry policy.
func DefaultBackoff() Backoff {
	return Backoff{Base: 50 * time.Millisecond, Max: 2 * time.Second, Attempts: 3}
}

// Client is a UUCS client instance. It is not safe for concurrent use;
// a host runs one client.
//
// All network operations are fault-tolerant: they run under the Retry
// policy with capped, jittered exponential backoff, reconnecting on
// every attempt. Registration is idempotent (the client presents a
// persistent nonce, so a lost response cannot create a second
// identity), downloads are idempotent (a retried sync with the same
// have-list receives the same sample), and uploads are idempotent
// (pending results are sealed into journaled, sequence-numbered outbox
// batches that the server deduplicates). A client killed at any point
// resumes from its store without losing or double-reporting a run.
type Client struct {
	// Store is the client's permanent storage.
	Store *Store
	// Snapshot describes this machine, sent at registration.
	Snapshot protocol.Snapshot
	// Engine executes testcases.
	Engine *core.Engine
	// SyncBatch is the base number of testcases requested per hot sync;
	// the sample grows by this much each time, implementing the paper's
	// "growing random sample of testcases".
	SyncBatch int
	// Dialer opens the transport connection; nil means TCP. Chaos tests
	// inject simulated, fault-carrying networks here.
	Dialer func(addr string) (net.Conn, error)
	// Timeout bounds each protocol message send/receive; zero disables
	// deadlines.
	Timeout time.Duration
	// Retry is the reconnect policy for every network operation.
	Retry Backoff
	// Sleep waits between retries; nil means time.Sleep. Chaos tests
	// inject a virtual clock here.
	Sleep func(d time.Duration)
	// Scratch, when non-nil, is caller-owned reusable per-run state for
	// testcase execution. Drivers that run many clients per worker (the
	// Internet study) share one per worker; runs are bit-identical with
	// or without it.
	Scratch *core.Scratch
	// ProtocolVersion selects the wire framing: 0 (the default)
	// negotiates — the registration request is sent in the v2 framing,
	// asks for v3, and adopts whatever the server grants — while
	// protocol.V2 or protocol.V3 pin the framing outright (V3 against a
	// server that cannot speak it fails; it is the testing override, not
	// the rollout path).
	ProtocolVersion int

	id    string
	nonce string
	// negotiated is the wire version the server granted at registration
	// (0, meaning v2, until a registration round-trip completes).
	negotiated int
	syncs      int
	rng        *stats.Stream
	// retryRng drives backoff jitter only. It is deliberately separate
	// from rng: retries must not perturb testcase choice or arrival
	// draws, or a faulty run would diverge from a fault-free one.
	retryRng *stats.Stream
}

// New builds a client over the given store. seed fixes the local random
// choices (testcase selection, Poisson arrival times) and — mixed with
// the machine snapshot — the registration nonce on first use of a
// store. Real (non-simulated) deployments should pre-seed the store
// with RandomNonce instead.
func New(store *Store, snap protocol.Snapshot, engine *core.Engine, seed uint64) (*Client, error) {
	if store == nil {
		return nil, fmt.Errorf("client: nil store")
	}
	if err := snap.Validate(); err != nil {
		return nil, err
	}
	if engine == nil {
		engine = core.NewEngine()
	}
	id, err := store.ClientID()
	if err != nil {
		return nil, err
	}
	nonce, err := store.Nonce()
	if err != nil {
		return nil, err
	}
	if nonce == "" {
		// Mix the machine snapshot into the derivation: two hosts that
		// happen to share a seed (e.g. two volunteers on the default
		// CLI seed) must still present distinct nonces, or the server's
		// nonce dedup would merge them into one identity and drop the
		// second host's uploads as duplicates.
		ns := stats.NewStream(seed ^ 0x6e6f6e6365 ^ snapshotSeed(snap)) // "nonce"
		nonce = fmt.Sprintf("n-%016x%016x", ns.Uint64(), ns.Uint64())
		if err := store.SetNonce(nonce); err != nil {
			return nil, err
		}
	}
	return &Client{
		Store:     store,
		Snapshot:  snap,
		Engine:    engine,
		SyncBatch: 16,
		Retry:     DefaultBackoff(),
		id:        id,
		nonce:     nonce,
		rng:       stats.NewStream(seed),
		retryRng:  stats.NewStream(seed ^ 0x7265747279), // "retry"
	}, nil
}

// snapshotSeed folds a machine snapshot into a 64-bit value (FNV-1a
// over the identifying fields), used to decorrelate nonce derivation
// across hosts that share a seed.
func snapshotSeed(snap protocol.Snapshot) uint64 {
	h := uint64(0xcbf29ce484222325)
	mix := func(v uint64) {
		h ^= v
		h *= 0x100000001b3
	}
	for _, s := range []string{snap.Hostname, snap.OS} {
		for i := 0; i < len(s); i++ {
			mix(uint64(s[i]))
		}
		mix(uint64(len(s)) + 1)
	}
	mix(math.Float64bits(snap.CPUGHz))
	mix(math.Float64bits(snap.MemMB))
	mix(math.Float64bits(snap.DiskGB))
	return h
}

// RandomNonce returns a registration nonce drawn from the operating
// system's entropy source. Real deployments should seed their store
// with it (see cmd/uucs-client): unlike the deterministic derivation in
// New — which only has to be unique within a simulated fleet — it
// cannot collide across real volunteer hosts that share a -seed.
func RandomNonce() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("client: nonce entropy: %w", err)
	}
	return fmt.Sprintf("n-%x", b), nil
}

// ID returns the registration id, or "" before registration.
func (c *Client) ID() string { return c.id }

// dial opens a protocol connection to the server.
func (c *Client) dial(addr string) (*protocol.Conn, error) {
	dialer := c.Dialer
	if dialer == nil {
		dialer = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	nc, err := dialer(addr)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	conn := protocol.NewConn(nc)
	conn.SetTimeout(c.Timeout)
	conn.SetVersion(c.WireVersion())
	return conn, nil
}

// WireVersion is the framing this client currently speaks: a pinned
// ProtocolVersion wins; otherwise whatever registration negotiated
// (v2 until then, which is safe against any server).
func (c *Client) WireVersion() int {
	switch c.ProtocolVersion {
	case protocol.V3:
		return protocol.V3
	case protocol.V2:
		return protocol.V2
	}
	if c.negotiated >= protocol.V3 {
		return protocol.V3
	}
	return protocol.V2
}

// permanentError marks a failure that a reconnect cannot fix (an
// in-band server rejection, a local store failure); withRetry stops
// immediately instead of burning attempts.
type permanentError struct{ err error }

func (e permanentError) Error() string { return e.err.Error() }
func (e permanentError) Unwrap() error { return e.err }

// permanent wraps err as non-retryable.
func permanent(err error) error {
	if err == nil {
		return nil
	}
	return permanentError{err}
}

// backoffDelay returns the jittered delay before retry attempt n >= 1.
func (c *Client) backoffDelay(n int) time.Duration {
	d := c.Retry.Base
	if d <= 0 {
		d = 50 * time.Millisecond
	}
	for i := 1; i < n && d < c.Retry.Max; i++ {
		d *= 2
	}
	if c.Retry.Max > 0 && d > c.Retry.Max {
		d = c.Retry.Max
	}
	// Jitter uniformly in [0.5d, 1.5d) to decorrelate a fleet of
	// clients retrying against a just-restarted server.
	j := time.Duration((0.5 + c.retryRng.Float64()) * float64(d))
	if c.Retry.Max > 0 && j > c.Retry.Max {
		j = c.Retry.Max
	}
	return j
}

// withRetry runs fn over a fresh connection, reconnecting with backoff
// on transient failures until the retry budget is spent.
func (c *Client) withRetry(addr string, fn func(conn *protocol.Conn) error) error {
	attempts := c.Retry.Attempts
	if attempts <= 0 {
		attempts = 1
	}
	sleep := c.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	var lastErr error
	for a := 1; a <= attempts; a++ {
		if a > 1 {
			sleep(c.backoffDelay(a - 1))
		}
		conn, err := c.dial(addr)
		if err != nil {
			lastErr = err
			continue
		}
		err = fn(conn)
		conn.Close()
		if err == nil {
			return nil
		}
		var perm permanentError
		if errors.As(err, &perm) {
			return perm.err
		}
		lastErr = err
	}
	return lastErr
}

// Register performs initial registration: the client presents its
// snapshot plus a persistent nonce and stores the unique identifier
// the server assigns. It is idempotent both locally (an
// already-registered client keeps its id) and on the wire (a retried
// registration with the same nonce receives the same id).
//
// A client restarted with a stored identity still performs the wire
// round-trip once per process life: registration is where the protocol
// version is negotiated, and skipping it would leave every restarted
// client conservatively speaking v2 forever. The request is idempotent
// (same nonce, same id back), so the re-probe costs one message and
// upgrades the client to the newest framing the server grants.
func (c *Client) Register(addr string) error {
	if c.id != "" && (c.negotiated != 0 || c.ProtocolVersion != 0) {
		// Registered and already negotiated this life (or pinned, which
		// makes negotiation moot): nothing to learn from the server.
		return nil
	}
	ask := protocol.Version
	if c.ProtocolVersion == protocol.V2 {
		ask = protocol.V2
	}
	var assigned string
	var granted int
	err := c.withRetry(addr, func(conn *protocol.Conn) error {
		if err := conn.Send(protocol.Message{
			Type: protocol.TypeRegister, Ver: ask,
			Snapshot: &c.Snapshot, Nonce: c.nonce,
		}); err != nil {
			return err
		}
		resp, err := conn.Recv()
		if err != nil {
			return err
		}
		if err := protocol.AsError(resp); err != nil {
			return permanent(err)
		}
		if resp.Type != protocol.TypeRegistered || resp.ClientID == "" {
			return permanent(fmt.Errorf("client: unexpected registration response %+v", resp))
		}
		assigned = resp.ClientID
		granted = resp.Ver
		return nil
	})
	if err != nil {
		return err
	}
	if c.id == "" {
		if err := c.Store.SetClientID(assigned); err != nil {
			return err
		}
		c.id = assigned
	}
	// On a stored-identity re-probe the stored id stays authoritative:
	// the nonce makes the server answer with the same id, and the
	// client's journaled upload history is keyed by it. Either way,
	// adopt the granted framing for every subsequent connection. A
	// server predating negotiation echoes no version; treat that as v2.
	if granted < protocol.V2 {
		granted = protocol.V2
	}
	c.negotiated = granted
	return nil
}

// SyncStats reports what one hot sync accomplished.
type SyncStats struct {
	// NewTestcases is how many previously unseen testcases arrived.
	NewTestcases int
	// UploadedRuns is how many pending run records were accepted
	// (including batches a previous, crashed sync had already uploaded
	// without learning of the ack).
	UploadedRuns int
}

// HotSync performs one hot sync (paper §2): download new testcases —
// a growing random sample — and upload new results. The client must be
// registered. The two phases are retried independently so a fault in
// one cannot re-execute the other: the download request is a pure
// function of the have-list, and uploads ride on sealed,
// sequence-numbered batches the server deduplicates, so a HotSync
// interrupted at any point and retried converges to exactly the state
// a fault-free sync would have produced.
func (c *Client) HotSync(addr string) (SyncStats, error) {
	var st SyncStats
	if c.id == "" {
		return st, fmt.Errorf("client: not registered")
	}

	// Download: ask for a growing sample. The testcase store is only
	// updated after the full payload arrives intact, so a retried
	// request carries the identical have-list and receives the
	// identical sample.
	existing, err := c.Store.Testcases()
	if err != nil {
		return st, err
	}
	have := make([]string, 0, len(existing))
	for _, tc := range existing {
		have = append(have, tc.ID)
	}
	c.syncs++
	want := c.SyncBatch * c.syncs
	var fetched []*testcase.Testcase
	err = c.withRetry(addr, func(conn *protocol.Conn) error {
		if err := conn.Send(protocol.Message{
			Type: protocol.TypeSync, ClientID: c.id, Have: have, Want: want,
		}); err != nil {
			return err
		}
		resp, err := conn.Recv()
		if err != nil {
			return err
		}
		if err := protocol.AsError(resp); err != nil {
			return permanent(err)
		}
		if resp.Type != protocol.TypeTestcases {
			return fmt.Errorf("client: unexpected sync response %q", resp.Type)
		}
		fetched = nil
		if resp.Payload != "" {
			tcs, err := testcase.Parse([]byte(resp.Payload))
			if err != nil {
				return fmt.Errorf("client: bad testcase payload: %w", err)
			}
			fetched = tcs
		}
		return nil
	})
	if err != nil {
		return st, err
	}
	if len(fetched) > 0 {
		added, err := c.Store.AddTestcases(fetched)
		if err != nil {
			return st, err
		}
		st.NewTestcases = added
	}

	// Upload: ship every sealed outbox batch (oldest first — earlier
	// batches may be survivors of a crashed previous sync), then seal
	// and ship the current pending runs.
	uploaded, err := c.uploadOutboxes(addr)
	st.UploadedRuns = uploaded
	return st, err
}

// uploadOutboxes seals pending runs into a new outbox batch and pushes
// every unacked batch to the server in sequence order. Each batch is
// retried until acked; the server drops duplicates, so a batch whose
// ack was lost is simply confirmed on the next attempt.
func (c *Client) uploadOutboxes(addr string) (int, error) {
	if _, err := c.Store.SealPending(); err != nil {
		return 0, err
	}
	batches, err := c.Store.Outboxes()
	if err != nil {
		return 0, err
	}
	uploaded := 0
	// One encode buffer for the whole upload loop: batch payloads reuse
	// its capacity, so only the string conversion allocates.
	var buf []byte
	for _, batch := range batches {
		buf = core.AppendRuns(buf[:0], batch.Runs, false)
		payload := string(buf)
		seq := batch.Seq
		err := c.withRetry(addr, func(conn *protocol.Conn) error {
			if err := conn.Send(protocol.Message{
				Type: protocol.TypeResults, ClientID: c.id, Payload: payload, Seq: seq,
			}); err != nil {
				return err
			}
			ack, err := conn.Recv()
			if err != nil {
				return err
			}
			if err := protocol.AsError(ack); err != nil {
				return permanent(err)
			}
			if ack.Type != protocol.TypeAck {
				return fmt.Errorf("client: unexpected upload response %q", ack.Type)
			}
			if ack.Seq != seq {
				return fmt.Errorf("client: ack for batch %d, want %d", ack.Seq, seq)
			}
			return nil
		})
		if err != nil {
			return uploaded, err
		}
		if err := c.Store.MarkBatchUploaded(seq); err != nil {
			return uploaded, err
		}
		uploaded += len(batch.Runs)
	}
	return uploaded, nil
}

// ChooseTestcase picks a testcase uniformly at random from the local
// store — the "local random choice of testcases" of §2.
func (c *Client) ChooseTestcase() (*testcase.Testcase, error) {
	tcs, err := c.Store.Testcases()
	if err != nil {
		return nil, err
	}
	if len(tcs) == 0 {
		return nil, fmt.Errorf("client: testcase store is empty (hot sync first)")
	}
	return tcs[c.rng.IntN(len(tcs))], nil
}

// NextArrival returns the wait before the next testcase execution, drawn
// from an exponential distribution so executions form a Poisson process
// (§2: "Poisson arrivals of testcase execution").
func (c *Client) NextArrival(meanGap float64) float64 {
	return c.rng.Exp(meanGap)
}

// ExecuteRun runs one testcase against the given foreground app and
// user model and appends the result to the pending store.
func (c *Client) ExecuteRun(tc *testcase.Testcase, app apps.App, user *comfort.User) (*core.Run, error) {
	var run *core.Run
	var err error
	if c.Scratch != nil {
		run, err = c.Engine.ExecuteScratch(c.Scratch, tc, app, user, c.rng.Uint64())
	} else {
		run, err = c.Engine.Execute(tc, app, user, c.rng.Uint64())
	}
	if err != nil {
		return nil, err
	}
	if err := c.Store.AppendRun(run); err != nil {
		return nil, err
	}
	return run, nil
}

// RunScript executes testcases by ID in the given order — the paper's
// deterministic mode, where the client executes "a predefined set of
// commands from a local file" (used by the controlled study). Unknown
// IDs are an error; results land in the pending store.
func (c *Client) RunScript(ids []string, app apps.App, user *comfort.User) ([]*core.Run, error) {
	tcs, err := c.Store.Testcases()
	if err != nil {
		return nil, err
	}
	byID := make(map[string]*testcase.Testcase, len(tcs))
	for _, tc := range tcs {
		byID[tc.ID] = tc
	}
	out := make([]*core.Run, 0, len(ids))
	for _, id := range ids {
		tc, ok := byID[id]
		if !ok {
			return out, fmt.Errorf("client: script references unknown testcase %q", id)
		}
		run, err := c.ExecuteRun(tc, app, user)
		if err != nil {
			return out, err
		}
		out = append(out, run)
	}
	return out, nil
}

// ParseScript reads a deterministic-mode command file: one testcase ID
// per line, blank lines and '#' comments ignored.
func ParseScript(text string) []string {
	var ids []string
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		ids = append(ids, line)
	}
	return ids
}
