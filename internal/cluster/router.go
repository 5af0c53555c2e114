package cluster

import (
	"fmt"
	"sync"
	"time"

	"uucs/internal/protocol"
	"uucs/internal/server"
	"uucs/internal/telemetry"
)

// forwardTimeout bounds one proxied request round-trip to a node. It
// has to cover a full group-commit ack (journal fsync + replica ship),
// so it is generous; a node that cannot answer inside it is treated as
// failed.
const forwardTimeout = 10 * time.Second

// forwardAttempts is how many times a request is tried against a
// partition before the router gives up — each attempt after a failure
// re-resolves the partition's address, so a promote-on-crash failover
// that lands between attempts is picked up transparently.
const forwardAttempts = 4

// Router is the thin tier in front of the node set. It speaks the
// ordinary client protocol downstream and proxies each request to the
// node owning the client, so clients need no cluster awareness at all:
// they dial the router exactly as they would a standalone server.
//
// Routing is by client id. For a registration — which has no id yet —
// the router derives the id the cluster will assign from the snapshot
// (server.DeriveClientID with the shared seed; ids are topology-
// independent by construction) and routes by that. Every successful
// registration pins the returned id to its node in the pin table; the
// pin, not the partition map, is authoritative afterwards, which is
// what keeps clients sticky across re-partitioning (map changes move
// only future registrations) and makes collision-remixed ids (which the
// map knows nothing about) routable.
//
// When a node stops answering, the router invokes its OnNodeDown hook
// exactly once per address generation (single-flight across all client
// sessions); the hook — the cluster's promote-on-crash failover —
// re-points the node id at a promoted replica via SetNodeAddr, and the
// failing request is retried against the new address. Partition
// identity is the node id: pins never change during failover, only the
// address behind the id does.
type Router struct {
	tr   Transport
	seed uint64

	// OnNodeDown, when non-nil, is called (single-flight) when a node
	// stops answering, with the node id and the causing error. It runs
	// with no router locks held and is expected to either repair the
	// node (SetNodeAddr) or return; requests retry either way. Set
	// before Start.
	OnNodeDown func(node string, cause error)

	mu     sync.Mutex
	pmap   *PartitionMap
	addrs  map[string]string // node id -> current ingest address
	gens   map[string]int    // address generation, bumped by SetNodeAddr
	pins   map[string]string // client id -> node id
	ln     interface{ Close() error }
	conns  map[*protocol.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	// failMu serializes failure handling so concurrent client sessions
	// observing the same dead node trigger exactly one failover.
	failMu sync.Mutex

	forwards  telemetry.Counter
	retries   telemetry.Counter
	failovers telemetry.Counter
	misroutes telemetry.Counter
}

// NewRouter builds a router over the given partition map and node
// address table. seed must equal the nodes' server seed — client-id
// derivation depends on it.
func NewRouter(tr Transport, seed uint64, pmap *PartitionMap, addrs map[string]string) (*Router, error) {
	for _, node := range pmap.Nodes() {
		if addrs[node] == "" {
			return nil, fmt.Errorf("cluster: no address for node %s", node)
		}
	}
	r := &Router{
		tr:    tr,
		seed:  seed,
		pmap:  pmap,
		addrs: make(map[string]string, len(addrs)),
		gens:  make(map[string]int, len(addrs)),
		pins:  make(map[string]string),
		conns: make(map[*protocol.Conn]struct{}),
	}
	for node, addr := range addrs {
		r.addrs[node] = addr
	}
	return r, nil
}

// Start listens on addr and serves clients in the background,
// returning the bound address.
func (r *Router) Start(addr string) (string, error) {
	ln, err := r.tr.Listen(addr)
	if err != nil {
		return "", err
	}
	r.mu.Lock()
	r.ln = ln
	r.mu.Unlock()
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			pc := protocol.NewConn(conn)
			r.mu.Lock()
			if r.closed {
				r.mu.Unlock()
				pc.Close()
				return
			}
			r.conns[pc] = struct{}{}
			r.mu.Unlock()
			r.wg.Add(1)
			go func() {
				defer r.wg.Done()
				r.handle(pc)
				r.mu.Lock()
				delete(r.conns, pc)
				r.mu.Unlock()
			}()
		}
	}()
	return ln.Addr().String(), nil
}

// SetNodeAddr re-points a node id at a new address (failover: the
// promoted replica's listener) and bumps its generation so every
// session discards cached connections to the old address.
func (r *Router) SetNodeAddr(node, addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.addrs[node] = addr
	r.gens[node]++
}

// SetPartitionMap swaps the partition map. Only future registrations
// are affected: every already-registered client stays on its pinned
// node, so re-partitioning never strands a client's (id, seq) state.
func (r *Router) SetPartitionMap(pmap *PartitionMap, addrs map[string]string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pmap = pmap
	for node, addr := range addrs {
		if _, known := r.addrs[node]; !known {
			r.addrs[node] = addr
		}
	}
}

// nodeAddr resolves a node's current address and generation.
func (r *Router) nodeAddr(node string) (string, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.addrs[node], r.gens[node]
}

// route picks the owning node for one request from the frame's
// fields. Only a registration (cold, once per client) decodes more than
// the client id: it needs the snapshot to derive the id.
func (r *Router) route(f *protocol.Frame) (string, error) {
	id := string(f.ClientID)
	if f.Type == protocol.TypeRegister {
		snap, err := f.DecodeSnapshot()
		if err != nil {
			return "", err
		}
		if snap == nil {
			return "", fmt.Errorf("register without snapshot")
		}
		id = server.DeriveClientID(r.seed, *snap)
	}
	if id == "" {
		return "", fmt.Errorf("request without client id")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if node, pinned := r.pins[id]; pinned {
		return node, nil
	}
	if f.Type != protocol.TypeRegister {
		// An id the router never pinned: either a client that
		// registered before the router existed, or a misrouted fleet.
		// The partition map is still deterministic for it.
		r.misroutes.Add(1)
	}
	return r.pmap.Owner(id), nil
}

// upstream is one cached node connection inside a client session.
type upstream struct {
	conn *protocol.Conn
	gen  int
}

// handle proxies one downstream client session. Upstream connections
// are per-session (a session's requests are strictly serial, so no
// multiplexing is needed) and cached per node.
//
// Every hop keeps the client's framing: a request goes upstream in the
// framing it arrived in and the reply comes back down the same way.
// For a v3 client both directions relay the frames' verbatim wire bytes,
// so the router never re-encodes (or allocates for) a binary message;
// a v2 client's lines are re-encoded per hop, which is also what keeps
// nodes running with MaxProtocol = V2 usable behind the router.
func (r *Router) handle(down *protocol.Conn) {
	defer down.Close()
	ups := make(map[string]*upstream)
	defer func() {
		for _, up := range ups {
			up.conn.Close()
		}
	}()
	for {
		f, err := down.RecvFrame()
		if err != nil {
			return
		}
		node, err := r.route(f)
		if err != nil {
			if down.SendError(err) != nil {
				return
			}
			continue
		}
		reply, err := r.forward(ups, node, f)
		if err != nil {
			if down.SendError(fmt.Errorf("node %s unavailable: %v", node, err)) != nil {
				return
			}
			continue
		}
		if reply.Type == protocol.TypeRegistered && len(reply.ClientID) > 0 {
			r.pin(string(reply.ClientID), node)
		}
		if down.SendFrame(reply) != nil {
			return
		}
	}
}

// pin records that a client id lives on a node.
func (r *Router) pin(clientID, node string) {
	r.mu.Lock()
	r.pins[clientID] = node
	r.mu.Unlock()
}

// forward sends one request frame to a node in the frame's own wire
// framing and returns the reply frame, retrying across redials and
// failovers. The request's views stay valid across retries — nothing
// reads from the downstream connection until the reply is relayed. A
// retry may hit a node that already applied the request (the first ack
// was lost in the failure) — the protocol's nonce/seq idempotency turns
// that into a dup ack, which is passed through for the client to treat
// as success.
//
// The returned frame is owned by the upstream connection and valid
// until the next forward touching the same node.
func (r *Router) forward(ups map[string]*upstream, node string, f *protocol.Frame) (*protocol.Frame, error) {
	r.forwards.Add(1)
	var lastErr error
	for attempt := 0; attempt < forwardAttempts; attempt++ {
		if attempt > 0 {
			r.retries.Add(1)
		}
		addr, gen := r.nodeAddr(node)
		if addr == "" {
			return nil, fmt.Errorf("no address for node %s", node)
		}
		up := ups[node]
		if up != nil && up.gen != gen {
			up.conn.Close()
			up = nil
			delete(ups, node)
		}
		if up == nil {
			raw, err := r.tr.Dial(addr)
			if err != nil {
				lastErr = err
				r.nodeFailed(node, gen, err)
				continue
			}
			up = &upstream{conn: protocol.NewConn(raw), gen: gen}
			up.conn.SetTimeout(forwardTimeout)
			ups[node] = up
		}
		up.conn.SetVersion(f.WireVersion)
		if err := up.conn.SendFrame(f); err != nil {
			lastErr = err
			up.conn.Close()
			delete(ups, node)
			r.nodeFailed(node, gen, err)
			continue
		}
		reply, err := up.conn.RecvFrame()
		if err != nil {
			lastErr = err
			up.conn.Close()
			delete(ups, node)
			r.nodeFailed(node, gen, err)
			continue
		}
		return reply, nil
	}
	return nil, lastErr
}

// nodeFailed reports a node failure observed at address generation gen.
// The failover hook runs exactly once per generation: whichever session
// gets here first runs it; sessions arriving later (or observing a
// stale generation) find the generation already bumped and simply
// retry. Sessions queue on failMu while a failover is in progress, so
// nobody retries against the dead address mid-promote.
func (r *Router) nodeFailed(node string, gen int, cause error) {
	r.failMu.Lock()
	defer r.failMu.Unlock()
	r.mu.Lock()
	stale := r.gens[node] != gen
	closed := r.closed
	hook := r.OnNodeDown
	r.mu.Unlock()
	if stale || closed || hook == nil {
		return
	}
	r.failovers.Add(1)
	hook(node, cause)
}

// Pins returns a copy of the pin table (client id -> node id).
func (r *Router) Pins() map[string]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	pins := make(map[string]string, len(r.pins))
	for id, node := range r.pins {
		pins[id] = node
	}
	return pins
}

// RouterStats is a point-in-time dump of the router's counters.
type RouterStats struct {
	Forwards  uint64 `json:"forwards"`
	Retries   uint64 `json:"retries"`
	Failovers uint64 `json:"failovers"`
	Misroutes uint64 `json:"misroutes"`
	Pins      int    `json:"pins"`
}

// Stats snapshots the router counters.
func (r *Router) Stats() RouterStats {
	r.mu.Lock()
	pins := len(r.pins)
	r.mu.Unlock()
	return RouterStats{
		Forwards:  r.forwards.Load(),
		Retries:   r.retries.Load(),
		Failovers: r.failovers.Load(),
		Misroutes: r.misroutes.Load(),
		Pins:      pins,
	}
}

// Telemetry renders the router's own health as a USE snapshot (node
// "router"), suitable for merging with the nodes' snapshots.
func (r *Router) Telemetry() *telemetry.Snapshot {
	st := r.Stats()
	snap := &telemetry.Snapshot{Taken: time.Now(), Node: "router"}
	retryRatio := telemetry.Ratio(float64(st.Retries), float64(st.Forwards+st.Retries))
	snap.Add(telemetry.Sample{
		Resource: "forwarding", Axis: telemetry.Errors,
		Metric: "retried forwards", Value: float64(st.Retries), Unit: "reqs",
		Pressure: retryRatio,
		Detail:   fmt.Sprintf("%d forwards, %d retries, %d pins", st.Forwards, st.Retries, st.Pins),
	})
	failP := 0.0
	if st.Failovers > 0 {
		failP = 1
	}
	snap.Add(telemetry.Sample{
		Resource: "failover", Axis: telemetry.Errors,
		Metric: "failovers triggered", Value: float64(st.Failovers),
		Pressure: failP,
		Detail:   "a node stopped answering and was failed over",
	})
	snap.Finalize()
	return snap
}

// Close stops the router, severs live sessions, and waits for their
// handlers.
func (r *Router) Close() error {
	r.mu.Lock()
	r.closed = true
	ln := r.ln
	for pc := range r.conns {
		pc.Close()
	}
	r.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	r.wg.Wait()
	return err
}
