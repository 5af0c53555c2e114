package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"strings"
	"sync"
	"time"

	"uucs/internal/cluster"
	"uucs/internal/core"
	"uucs/internal/protocol"
	"uucs/internal/server"
	"uucs/internal/testcase"
)

// The simulated fleet: hosts multiplexed over a few client connections,
// each connection a closed loop that sends its next request only after
// the previous reply arrived, as every real client blocks on its ack.

// countingConn counts the bytes a connection carries in each direction.
// Only the session that owns the connection touches the counters.
type countingConn struct {
	net.Conn
	in, out int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in += int64(n)
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out += int64(n)
	return n, err
}

// host is one registered client identity.
type host struct {
	id   string
	seq  uint64   // last acked upload sequence number
	have []string // testcase ids held, newest last, capped at haveCap
}

// haveCap bounds the have-list a host sends with each sync.
const haveCap = 32

// session is one client connection and the hosts it carries.
type session struct {
	nc       *countingConn
	conn     *protocol.Conn
	hosts    []*host
	payloads []string
	runs     int   // run records per upload
	ln       *lane // nil when untraced
	acct     tally // the current phase, read after the phase ends
}

// tally is the accounting of one phase: requests attempted and failed,
// latencies (a failed request reads +Inf, missing any limit) and bytes.
type tally struct {
	attempted, failed int
	acked, syncs      int
	ackMs, syncMs     []float64
	uploadOut, ackIn  int64 // bytes of acked uploads and of their acks
	syncIn            int64 // bytes of sync replies
	problems          []string
}

// add folds o into t.
func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.acked += o.acked
	t.syncs += o.syncs
	t.ackMs = append(t.ackMs, o.ackMs...)
	t.syncMs = append(t.syncMs, o.syncMs...)
	t.uploadOut += o.uploadOut
	t.ackIn += o.ackIn
	t.syncIn += o.syncIn
	t.problems = append(t.problems, o.problems...)
}

// fleet is the set of sessions one workload drives.
type fleet struct {
	sessions []*session
}

// fleetSnapshots draws the registration snapshots of n hosts from the
// seed. Given the nodes of a cluster, it balances the fleet over them: a
// drawn host whose owner (the cluster's partition map applied to the id
// the cluster derives for it) already has its share is passed over, so
// each node owns n/len(nodes) hosts (the first n%len(nodes) nodes one
// more) whatever the seed, and failover and merge read state of the
// same size on every run.
func fleetSnapshots(seed uint64, n int, nodes []string) ([]protocol.Snapshot, error) {
	rng := rand.New(rand.NewPCG(seed, 0x666c656574)) // "fleet"
	quota := map[string]int{"": n}
	var pm *cluster.PartitionMap
	if len(nodes) > 0 {
		var err error
		if pm, err = cluster.NewPartitionMap(nodes...); err != nil {
			return nil, err
		}
		quota = map[string]int{}
		for k, node := range nodes {
			quota[node] = n / len(nodes)
			if k < n%len(nodes) {
				quota[node]++
			}
		}
	}
	snaps := make([]protocol.Snapshot, 0, n)
	for c := 0; len(snaps) < n; c++ {
		if c == 100*n {
			return nil, fmt.Errorf("could not balance %d hosts over %v", n, nodes)
		}
		snap := protocol.Snapshot{
			Hostname: fmt.Sprintf("fb-%d-%05d", seed, c),
			OS:       []string{"win2k", "winxp", "linux"}[rng.IntN(3)],
			CPUGHz:   0.5 + 3*rng.Float64(),
			MemMB:    float64(int(128) << rng.IntN(5)),
			DiskGB:   float64(20 + rng.IntN(300)),
		}
		owner := ""
		if pm != nil {
			owner = pm.Owner(server.DeriveClientID(seed, snap))
		}
		if quota[owner] > 0 {
			quota[owner]--
			snaps = append(snaps, snap)
		}
	}
	return snaps, nil
}

// uploadPayloads generates n distinct upload payloads of runs records
// each, in the store encoding a real client uploads.
func uploadPayloads(rng *rand.Rand, n, runs, testcases int) ([]string, error) {
	out := make([]string, n)
	resources := testcase.Resources()
	tasks := testcase.Tasks()
	for i := range out {
		batch := make([]*core.Run, runs)
		for j := range batch {
			res := resources[rng.IntN(len(resources))]
			lvl := 0.05 + 5*rng.Float64()
			five := make([]float64, 5)
			for k := range five {
				five[k] = lvl * float64(k+1) / 5
			}
			term := core.Exhausted
			if rng.IntN(3) == 0 {
				term = core.Discomfort
			}
			batch[j] = &core.Run{
				TestcaseID: fmt.Sprintf("fb-%05d", rng.IntN(testcases)),
				Task:       tasks[rng.IntN(len(tasks))], UserID: rng.IntN(100000),
				Terminated: term, Offset: math.Round(1200*rng.Float64()) / 10,
				PrimaryResource: res,
				Levels:          map[testcase.Resource]float64{res: lvl},
				LastFive:        map[testcase.Resource][]float64{res: five},
				Events:          rng.IntN(500),
			}
		}
		var b strings.Builder
		if err := core.EncodeRuns(&b, batch, false); err != nil {
			return nil, err
		}
		out[i] = b.String()
	}
	return out, nil
}

// dialFleet connects conns sessions to addr and registers one host
// identity per snapshot over them, split evenly. Registration latencies
// (µs) are returned for the server.register_us_p50 reading.
func dialFleet(addr string, conns int, snaps []protocol.Snapshot, seed uint64, tr *tracer, parent uint64, payloads []string, runs int) (*fleet, []float64, error) {
	hosts := len(snaps)
	f := &fleet{}
	for c := 0; c < conns; c++ {
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			f.close()
			return nil, nil, err
		}
		protocol.TuneConn(raw)
		nc := &countingConn{Conn: raw}
		conn := protocol.NewConn(nc)
		conn.SetVersion(protocol.V3)
		f.sessions = append(f.sessions, &session{nc: nc, conn: conn, payloads: payloads, runs: runs, ln: tr.lane()})
	}
	regUs := make([][]float64, conns)
	err := f.each(func(c int, s *session) error {
		for i := c; i < hosts; i += conns {
			h := s.ln.begin("bench.register", parent, 0)
			t0 := time.Now()
			s.acct.attempted++
			reply, err := s.roundTrip(protocol.Message{
				Type: protocol.TypeRegister, Ver: protocol.V3, Snapshot: &snaps[i],
				Nonce: fmt.Sprintf("fb-nonce-%d-%05d", seed, i),
			}, h)
			s.ln.end(h)
			if err != nil {
				return err
			}
			if reply.Type != protocol.TypeRegistered || reply.ClientID == "" || reply.Ver != protocol.V3 {
				s.acct.failed++
				s.problem("register host %d: reply %q id %q ver %d (%s)", i, reply.Type, reply.ClientID, reply.Ver, reply.Err)
				continue
			}
			regUs[c] = append(regUs[c], float64(time.Since(t0))/1e3)
			s.hosts = append(s.hosts, &host{id: reply.ClientID})
		}
		return nil
	})
	if err != nil {
		f.close()
		return nil, nil, err
	}
	var all []float64
	for _, r := range regUs {
		all = append(all, r...)
	}
	return f, all, nil
}

// each runs fn once per session, concurrently, and returns the first
// error.
func (f *fleet) each(fn func(c int, s *session) error) error {
	errs := make([]error, len(f.sessions))
	var wg sync.WaitGroup
	for c, s := range f.sessions {
		wg.Add(1)
		go func(c int, s *session) {
			defer wg.Done()
			errs[c] = fn(c, s)
		}(c, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// hostCount is the number of registered hosts across all sessions.
func (f *fleet) hostCount() int {
	n := 0
	for _, s := range f.sessions {
		n += len(s.hosts)
	}
	return n
}

// collect returns the sessions' accounting of the phase just run and
// clears it for the next phase.
func (f *fleet) collect() tally {
	var t tally
	for _, s := range f.sessions {
		t.add(s.acct)
		s.acct = tally{}
	}
	return t
}

// close closes every connection and hands the sessions' spans to the
// tracer.
func (f *fleet) close() {
	for _, s := range f.sessions {
		s.conn.Close()
		s.ln.close()
	}
}

// roundTrip sends one request and waits for its reply, recording
// protocol.send and protocol.recv spans under the span behind handle h.
// Only a transport failure is an error; an in-band error reply is
// returned as a reply.
func (s *session) roundTrip(m protocol.Message, h int) (protocol.Message, error) {
	id := s.ln.id(h)
	sp := s.ln.begin("protocol.send", id, id)
	err := s.conn.Send(m)
	s.ln.end(sp)
	if err != nil {
		return protocol.Message{}, fmt.Errorf("send %s: %w", m.Type, err)
	}
	rp := s.ln.begin("protocol.recv", id, id)
	reply, err := s.conn.Recv()
	s.ln.end(rp)
	if err != nil {
		return protocol.Message{}, fmt.Errorf("recv reply to %s: %w", m.Type, err)
	}
	return reply, nil
}

func (s *session) problem(format string, args ...any) {
	if len(s.acct.problems) < 8 {
		s.acct.problems = append(s.acct.problems, fmt.Sprintf(format, args...))
	}
}

// upload sends host h's next results batch and waits for its ack. A
// refused upload counts as failed, and as missing any latency limit.
func (s *session) upload(h *host, parent uint64) error {
	seq := h.seq + 1
	h.seq = seq // a refused upload is not re-sent: the next one moves on
	sp := s.ln.begin("bench.upload", parent, 0)
	t0 := time.Now()
	out0, in0 := s.nc.out, s.nc.in
	s.acct.attempted++
	reply, err := s.roundTrip(protocol.Message{Type: protocol.TypeResults, ClientID: h.id, Payload: s.payloadFor(h, seq), Seq: seq}, sp)
	s.ln.end(sp)
	if err != nil {
		return err
	}
	if perr := protocol.AsError(reply); perr != nil {
		s.acct.failed++
		s.acct.ackMs = append(s.acct.ackMs, math.Inf(1))
		s.problem("upload %s seq %d refused: %v", h.id, seq, perr)
		return nil
	}
	if reply.Type != protocol.TypeAck || reply.Seq != seq || reply.Count != s.runs || reply.Dup {
		s.acct.failed++
		s.acct.ackMs = append(s.acct.ackMs, math.Inf(1))
		s.problem("upload %s seq %d: reply %q seq %d count %d dup %v", h.id, seq, reply.Type, reply.Seq, reply.Count, reply.Dup)
		return nil
	}
	s.acct.ackMs = append(s.acct.ackMs, float64(time.Since(t0))/1e6)
	s.acct.uploadOut += s.nc.out - out0
	s.acct.ackIn += s.nc.in - in0
	s.acct.acked++
	return nil
}

// payloadFor picks the payload of host h's upload seq.
func (s *session) payloadFor(h *host, seq uint64) string {
	k := uint64(len(h.id))*0x9e3779b97f4a7c15 ^ seq*0xbf58476d1ce4e5b9
	for i := 0; i < len(h.id); i++ {
		k = (k ^ uint64(h.id[i])) * 0x100000001b3
	}
	return s.payloads[k%uint64(len(s.payloads))]
}

// sync asks for want new testcases, sending h's have-list, and keeps the
// returned ids (newest last, capped at haveCap).
func (s *session) sync(h *host, want int, parent uint64) error {
	sp := s.ln.begin("bench.sync", parent, 0)
	t0 := time.Now()
	in0 := s.nc.in
	s.acct.attempted++
	reply, err := s.roundTrip(protocol.Message{Type: protocol.TypeSync, ClientID: h.id, Want: want, Have: h.have}, sp)
	s.ln.end(sp)
	if err != nil {
		return err
	}
	ids := testcaseIDs(reply.Payload)
	if reply.Type != protocol.TypeTestcases || reply.Count != want || len(ids) != want {
		s.acct.failed++
		s.acct.syncMs = append(s.acct.syncMs, math.Inf(1))
		s.problem("sync %s: reply %q count %d ids %d (%s)", h.id, reply.Type, reply.Count, len(ids), reply.Err)
		return nil
	}
	s.acct.syncMs = append(s.acct.syncMs, float64(time.Since(t0))/1e6)
	s.acct.syncIn += s.nc.in - in0
	s.acct.syncs++
	h.have = append(h.have, ids...)
	if n := len(h.have); n > haveCap {
		h.have = append(h.have[:0], h.have[n-haveCap:]...)
	}
	return nil
}

// testcaseIDs lists the ids of the testcases in a sync payload (the
// "testcase <id>" header line of each record).
func testcaseIDs(payload string) []string {
	var ids []string
	for len(payload) > 0 {
		line := payload
		if i := strings.IndexByte(payload, '\n'); i >= 0 {
			line, payload = payload[:i], payload[i+1:]
		} else {
			payload = ""
		}
		if id, ok := strings.CutPrefix(line, "testcase "); ok {
			ids = append(ids, id)
		}
	}
	return ids
}
