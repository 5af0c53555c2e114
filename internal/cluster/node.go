package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"uucs/internal/server"
	"uucs/internal/telemetry"
	"uucs/internal/testcase"
)

// Config describes a cluster to start.
type Config struct {
	// Nodes are the node ids (at least one). Ring replication follows
	// this order: node i's journal is shipped to node i+1 (mod N).
	Nodes []string
	// Seed is the shared server seed — client ids derive from it, so
	// every node and the router must agree on it.
	Seed uint64
	// StateRoot is the directory under which each node keeps its state
	// ("node-<id>") and the replicas it hosts ("node-<id>/replica-<p>").
	StateRoot string
	// Transport carries all cluster traffic (TCPTransport or
	// ChaosTransport). Required.
	Transport Transport
	// Testcases are loaded into every node at start (journaled, so they
	// replicate and survive failover).
	Testcases []*testcase.Testcase

	// Journal knobs, applied to every node (see server.Server).
	JournalBatch    int
	JournalSyncCost time.Duration
	// JournalSegmentBytes seals every node's journal into size-bounded
	// segments (see server.Server.JournalSegmentBytes; 0 means the
	// server default).
	JournalSegmentBytes int64
	// IdleTimeout is applied to every node's client connections.
	IdleTimeout time.Duration
}

// node is one running cluster member: an ingest server, the replica
// host serving its ring predecessor, and the shipper toward its ring
// successor.
type node struct {
	id      string
	srv     *server.Server
	addr    string
	dir     string
	replica *ReplicaHost // hosts the predecessor's replica
	repAddr string
	shipper *Shipper // ships our journal to the successor

	crashed  bool
	promoted bool // serving a dead primary's partition, unreplicated
}

// Cluster is an in-process N-node ingest tier: N nodes, a router, ring
// journal replication, and promote-on-crash failover. It is the
// library form of the tier — tests, loadgen, and the chaos suite drive
// it directly; real deployments run the same pieces as separate
// uucs-server/uucs-router processes.
type Cluster struct {
	cfg  Config
	pmap *PartitionMap

	router     *Router
	routerAddr string

	mu       sync.Mutex
	nodes    map[string]*node
	follower map[string]string // node id -> id of the node hosting its replica
	zombies  []*node           // partitioned-away primaries, stopped at shutdown
	addrSeq  int
}

// Start brings up every node, wires the replication ring, and starts
// the router. On return the router address (Addr) accepts clients.
func Start(cfg Config) (*Cluster, error) {
	if cfg.Transport == nil {
		return nil, fmt.Errorf("cluster: nil transport")
	}
	pmap, err := NewPartitionMap(cfg.Nodes...)
	if err != nil {
		return nil, err
	}
	if pmap.Len() != len(cfg.Nodes) {
		return nil, fmt.Errorf("cluster: duplicate node ids")
	}
	c := &Cluster{
		cfg:      cfg,
		pmap:     pmap,
		nodes:    make(map[string]*node),
		follower: make(map[string]string),
	}
	// Replica hosts first: every node's shipper needs its successor's
	// replica address before the node's first journaled op.
	order := cfg.Nodes
	for _, id := range order {
		n := &node{id: id, dir: filepath.Join(cfg.StateRoot, "node-"+id)}
		host, repAddr, err := NewReplicaHost(cfg.Transport, c.newAddr(id, "replica"), n.dir)
		if err != nil {
			c.Close()
			return nil, err
		}
		n.replica, n.repAddr = host, repAddr
		c.nodes[id] = n
	}
	for i, id := range order {
		succ := order[(i+1)%len(order)]
		c.follower[id] = succ
		n := c.nodes[id]
		if succ != id { // a 1-node cluster does not ship to itself
			n.shipper = NewShipper(cfg.Transport, id, c.nodes[succ].repAddr, nil)
		}
		if err := c.openNode(n); err != nil {
			c.Close()
			return nil, err
		}
	}
	addrs := make(map[string]string, len(order))
	for _, id := range order {
		addrs[id] = c.nodes[id].addr
	}
	c.router, err = NewRouter(cfg.Transport, cfg.Seed, pmap, addrs)
	if err != nil {
		c.Close()
		return nil, err
	}
	c.router.OnNodeDown = c.promote
	c.routerAddr, err = c.router.Start(c.newAddr("router", "ingest"))
	if err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// newAddr picks a fresh listen address: ephemeral for TCP, a unique
// name for the chaos network (promotions re-listen under new names).
func (c *Cluster) newAddr(id, kind string) string {
	if _, chaosNet := c.cfg.Transport.(ChaosTransport); !chaosNet {
		return "127.0.0.1:0"
	}
	c.mu.Lock()
	c.addrSeq++
	seq := c.addrSeq
	c.mu.Unlock()
	return fmt.Sprintf("%s-%s-%d", id, kind, seq)
}

// openNode builds and starts n's ingest server over n.dir. On a restart
// (replay applied records) the directory's full contents are shipped
// to the follower as a fresh bootstrap segment, so the replica is
// complete even if it missed the earlier life — replayed ops are
// idempotent on both the replica and the merge. The bootstrap is read
// after OpenState has cut any torn journal tail and upgraded legacy
// files, and before the journal writer ships anything.
func (c *Cluster) openNode(n *node) error {
	if err := os.MkdirAll(n.dir, 0o755); err != nil {
		return err
	}
	srv := server.New(c.cfg.Seed)
	srv.NodeID = n.id
	srv.IdleTimeout = c.cfg.IdleTimeout
	srv.JournalBatch = c.cfg.JournalBatch
	srv.JournalSyncCost = c.cfg.JournalSyncCost
	srv.JournalSegmentBytes = c.cfg.JournalSegmentBytes
	if n.shipper != nil {
		srv.JournalShip = n.shipper.Ship
	}
	if err := srv.OpenState(n.dir); err != nil {
		return err
	}
	if n.shipper != nil && srv.Stats().ReplayRecords > 0 {
		boot, err := readState(n.dir)
		if err == nil {
			err = n.shipper.Ship(boot)
		}
		if err != nil {
			srv.Close()
			return err
		}
	}
	if len(c.cfg.Testcases) > 0 && srv.TestcaseCount() == 0 {
		if err := srv.AddTestcases(c.cfg.Testcases...); err != nil {
			srv.Close()
			return err
		}
	}
	ln, err := c.cfg.Transport.Listen(c.newAddr(n.id, "ingest"))
	if err != nil {
		srv.Close()
		return err
	}
	go func() { _ = srv.Serve(ln) }()
	n.srv = srv
	n.addr = ln.Addr().String()
	n.crashed = false
	return nil
}

// readState returns a node directory's state bytes in replay order —
// snapshot, sealed journal segments, active journal — the bootstrap
// segment for a restarted node. Sealed segments ship as units inside
// it; their jmeta headers just re-declare the format on replay.
func readState(dir string) ([]byte, error) {
	files, err := server.StateFiles(dir)
	if err != nil {
		return nil, err
	}
	var buf []byte
	for _, path := range files {
		b, err := os.ReadFile(path)
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return nil, err
		}
		buf = append(buf, b...)
	}
	return buf, nil
}

// Addr is the router address clients dial.
func (c *Cluster) Addr() string { return c.routerAddr }

// Router exposes the router (stats, pins) to tests and telemetry.
func (c *Cluster) Router() *Router { return c.router }

// NodeAddr returns a node's current ingest address.
func (c *Cluster) NodeAddr(id string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := c.nodes[id]; n != nil {
		return n.addr
	}
	return ""
}

// CrashNode kills a node in-process the way SIGKILL would: its ingest
// server severs connections and abandons its journal un-flushed, the
// replica host it was serving for its predecessor goes away (the
// predecessor degrades to unreplicated on its next ship), and its own
// shipper stops. The node's partition fails over to its replica the
// next time the router touches it.
func (c *Cluster) CrashNode(id string) error {
	c.mu.Lock()
	n := c.nodes[id]
	if n == nil {
		c.mu.Unlock()
		return fmt.Errorf("cluster: unknown node %s", id)
	}
	if n.crashed {
		c.mu.Unlock()
		return fmt.Errorf("cluster: node %s already crashed", id)
	}
	n.crashed = true
	c.mu.Unlock()
	n.srv.Crash()
	if n.shipper != nil {
		n.shipper.Close()
	}
	if n.replica != nil {
		n.replica.Close()
	}
	return nil
}

// promote is the router's OnNodeDown hook: fail the dead node's
// partition over to its replica. It runs single-flight (under the
// router's failover lock). The sequence is the failover state machine
// documented in DESIGN.md:
//
//  1. Seal the replica — the follower refuses further segments from
//     the dead primary, which poisons the primary's journal if it is
//     actually alive-but-partitioned (fencing; it can never ack again).
//  2. Open a fresh server over the sealed replica directory; replay
//     rebuilds exactly the acked state (ship-before-ack guarantees
//     every acked op is in the replica).
//  3. Re-point the router's address table: the node id — the partition
//     identity — survives, only the address behind it changes, so
//     client pins stay valid.
//
// The promoted partition runs unreplicated (degraded) until an
// operator rebuilds a follower; a second failure of the same partition
// is not survivable and the hook refuses to run for it.
func (c *Cluster) promote(deadID string, cause error) {
	c.mu.Lock()
	n := c.nodes[deadID]
	if n == nil || n.promoted {
		c.mu.Unlock()
		return
	}
	hostID := c.follower[deadID]
	host := c.nodes[hostID]
	if hostID == "" || hostID == deadID || host == nil || host.crashed {
		c.mu.Unlock()
		return // no live replica to promote
	}
	if !n.crashed {
		// Alive-but-unreachable primary: it keeps running until Close,
		// but the seal below fences it from ever acking again.
		c.zombies = append(c.zombies, n)
	}
	c.mu.Unlock()

	host.replica.Seal(deadID)
	dir := host.replica.ReplicaDir(deadID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	repl := &node{id: deadID, dir: dir, promoted: true}
	if err := c.openNode(repl); err != nil {
		return
	}
	c.mu.Lock()
	repl.promoted = true
	c.nodes[deadID] = repl
	c.mu.Unlock()
	c.router.SetNodeAddr(deadID, repl.addr)
}

// AddNode grows the cluster with a fresh node (re-partitioning): the
// partition map gains the node, so it wins ownership of the minimal
// slice of future registrations; every already-pinned client stays
// where it is. The new node's journal ships to the first live node's
// replica host.
func (c *Cluster) AddNode(id string) error {
	c.mu.Lock()
	if c.nodes[id] != nil {
		c.mu.Unlock()
		return fmt.Errorf("cluster: node %s already exists", id)
	}
	var hostID string
	for _, cand := range c.cfg.Nodes {
		if n := c.nodes[cand]; n != nil && !n.crashed && !n.promoted && n.replica != nil {
			hostID = cand
			break
		}
	}
	n := &node{id: id, dir: filepath.Join(c.cfg.StateRoot, "node-"+id)}
	c.mu.Unlock()

	host, repAddr, err := NewReplicaHost(c.cfg.Transport, c.newAddr(id, "replica"), n.dir)
	if err != nil {
		return err
	}
	n.replica, n.repAddr = host, repAddr
	if hostID != "" {
		c.mu.Lock()
		n.shipper = NewShipper(c.cfg.Transport, id, c.nodes[hostID].repAddr, nil)
		c.follower[id] = hostID
		c.mu.Unlock()
	}
	if err := c.openNode(n); err != nil {
		host.Close()
		return err
	}
	c.mu.Lock()
	c.nodes[id] = n
	c.mu.Unlock()

	c.mu.Lock()
	pmap, err := c.pmap.With(id)
	if err == nil {
		c.pmap = pmap
	}
	c.mu.Unlock()
	if err != nil {
		return err
	}
	c.router.SetPartitionMap(pmap, map[string]string{id: n.addr})
	return nil
}

// Telemetry merges every live node's USE snapshot with the router's
// own, so the cluster verdict names which node's resource saturated. A
// degraded partition (unreplicated: promoted, or its follower died)
// contributes a saturated "replica" sample — losing redundancy is the
// cluster-level failure mode worth shouting about.
func (c *Cluster) Telemetry() *telemetry.Snapshot {
	c.mu.Lock()
	ids := make([]string, 0, len(c.nodes))
	for id := range c.nodes {
		ids = append(ids, id)
	}
	c.mu.Unlock()
	sort.Strings(ids)
	snaps := []*telemetry.Snapshot{c.router.Telemetry()}
	for _, id := range ids {
		c.mu.Lock()
		n := c.nodes[id]
		c.mu.Unlock()
		if n == nil || n.crashed {
			continue
		}
		snap := n.srv.Telemetry()
		degraded, why := 0.0, "journal replicated to follower"
		if n.promoted {
			degraded, why = 1.0, "promoted from replica, running unreplicated"
		} else if n.shipper == nil {
			why = "single-node cluster, nothing to replicate to"
		} else if n.shipper.Degraded() {
			degraded, why = 1.0, "follower unreachable, running unreplicated"
		}
		snap.Add(telemetry.Sample{
			Resource: "replica", Axis: telemetry.Errors,
			Metric: "replication degraded", Value: degraded,
			Pressure: degraded, Detail: why,
		})
		snap.Finalize()
		snaps = append(snaps, snap)
	}
	return telemetry.MergeSnapshots(snaps...)
}

// StateRoot returns the directory holding every node and replica
// state directory — the tree MergeTree folds into the dataset.
func (c *Cluster) StateRoot() string { return c.cfg.StateRoot }

// Close stops the router, every live node, every replica host, and any
// fenced-off zombie primaries.
func (c *Cluster) Close() error {
	var err error
	if c.router != nil {
		err = c.router.Close()
	}
	c.mu.Lock()
	nodes := make([]*node, 0, len(c.nodes))
	for _, n := range c.nodes {
		nodes = append(nodes, n)
	}
	zombies := c.zombies
	c.zombies = nil
	c.mu.Unlock()
	for _, z := range zombies {
		z.srv.Crash() // its journal is poisoned; a graceful close would error
		if z.shipper != nil {
			z.shipper.Close()
		}
		if z.replica != nil {
			z.replica.Close()
		}
	}
	for _, n := range nodes {
		if n.crashed {
			continue
		}
		if n.srv != nil {
			if cerr := n.srv.Close(); err == nil {
				err = cerr
			}
		}
		if n.shipper != nil {
			n.shipper.Close()
		}
		if n.replica != nil {
			if cerr := n.replica.Close(); err == nil {
				err = cerr
			}
		}
	}
	return err
}
