package chaos

import (
	"fmt"
	"net"
	"sync"
	"time"

	"uucs/internal/stats"
)

// Kind enumerates injectable faults.
type Kind string

// Fault kinds.
const (
	// KindNone injects nothing.
	KindNone Kind = ""
	// KindDialFail fails a dial before any connection exists.
	KindDialFail Kind = "dialfail"
	// KindDrop cuts the connection at a read or write.
	KindDrop Kind = "drop"
	// KindPartialWrite delivers only a prefix of a write, then cuts the
	// connection — the torn-frame case.
	KindPartialWrite Kind = "partialwrite"
	// KindCorrupt flips one byte of a write and lets it through; the
	// protocol checksum must catch it.
	KindCorrupt Kind = "corrupt"
	// KindStall blocks an operation long enough for any reasonable
	// deadline to fire before letting it proceed.
	KindStall Kind = "stall"
)

// Profile sets per-operation fault probabilities for randomized
// injection. All rates are in [0, 1]; dial rates apply per dial, the
// others per read/write call.
type Profile struct {
	// DialFail is the probability a dial attempt fails outright.
	DialFail float64
	// Drop is the probability a read or write cuts the connection.
	Drop float64
	// PartialWrite is the probability a write is torn: a prefix is
	// delivered, then the connection is cut.
	PartialWrite float64
	// Corrupt is the probability a write has exactly one byte flipped
	// (never a newline, so framing survives and the corruption must be
	// caught by content checks, not accidents of framing).
	Corrupt float64
	// Stall is the probability a read or write blocks for StallFor of
	// real time before proceeding — long enough to trip deadlines.
	Stall float64
	// StallFor is the stall duration; default 50ms.
	StallFor time.Duration
	// MaxFaults caps the total number of randomized faults injected, so
	// a retry budget is guaranteed to outlast the chaos; 0 means
	// unlimited. Scripted faults do not count against it. The cap is
	// split evenly among the ops the profile can fault (dial, write,
	// read, in that order, taking any remainder first), so which op
	// spends it does not depend on how ops interleave.
	MaxFaults int
}

// ScriptFault pins one fault to an exact operation: the n-th (1-based)
// occurrence of op ("dial", "read", or "write") triggers kind. Scripted
// faults fire regardless of profile rates or budget — the "scripted
// points" mode.
type ScriptFault struct {
	Op   string
	N    int
	Kind Kind
}

// Injector derives a deterministic fault schedule from a seed. Wrap a
// dial function (WrapDial) or a single connection (WrapConn); every
// operation then consults the injector. The fault for the n-th
// occurrence of an op is a pure function of (seed, op, n), so a read
// that races a write cannot shift any later decision: the schedule of
// each op depends only on how many times that op has occurred.
//
// An injector is safe for concurrent use, but a deterministic schedule
// requires each op's occurrences to be counted in a deterministic
// order — give each simulated host its own injector.
type Injector struct {
	mu      sync.Mutex
	seed    uint64
	profile Profile
	script  []ScriptFault
	budget  map[string]int // each op's share of MaxFaults
	faults  map[string]int // randomized faults injected per op
	ops     map[string]int
	events  []string
}

// NewInjector builds an injector with the given seed and profile.
func NewInjector(seed uint64, profile Profile) *Injector {
	if profile.StallFor <= 0 {
		profile.StallFor = 50 * time.Millisecond
	}
	in := &Injector{
		seed:    seed ^ 0x6368616f73, // "chaos"
		profile: profile,
		budget:  make(map[string]int),
		faults:  make(map[string]int),
		ops:     make(map[string]int),
	}
	p := profile
	ops := [...]string{"dial", "write", "read"}
	rates := [...]float64{p.DialFail, p.Drop + p.PartialWrite + p.Corrupt + p.Stall, p.Drop + p.Stall}
	var active []string
	for i, op := range ops {
		if rates[i] > 0 {
			active = append(active, op)
		}
	}
	for i, op := range active {
		in.budget[op] = p.MaxFaults / len(active)
		if i < p.MaxFaults%len(active) {
			in.budget[op]++
		}
	}
	return in
}

// Scripted appends scripted faults; see ScriptFault.
func (in *Injector) Scripted(faults ...ScriptFault) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.script = append(in.script, faults...)
	return in
}

// Events returns the log of injected faults, one "op#n kind" entry per
// fault, in injection order. Two runs of the same seeded scenario must
// produce identical logs — the determinism the scenario suite asserts.
func (in *Injector) Events() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]string, len(in.events))
	copy(out, in.events)
	return out
}

// Faults returns how many faults (randomized plus scripted) have been
// injected so far.
func (in *Injector) Faults() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.events)
}

// decide picks the fault (or none) for the next occurrence of op.
func (in *Injector) decide(op string) Kind {
	kind, _ := in.next(op)
	return kind
}

// next counts the next occurrence n of op and picks its fault.
func (in *Injector) next(op string) (Kind, int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.ops[op]++
	n := in.ops[op]
	for _, sf := range in.script {
		if sf.Op == op && sf.N == n && sf.Kind != KindNone {
			in.events = append(in.events, fmt.Sprintf("%s#%d %s", op, n, sf.Kind))
			return sf.Kind, n
		}
	}
	p := in.profile
	if p.MaxFaults > 0 && in.faults[op] >= in.budget[op] {
		return KindNone, n
	}
	var kind Kind
	draws := in.stream(op, n)
	u := draws.Float64()
	switch op {
	case "dial":
		if u < p.DialFail {
			kind = KindDialFail
		}
	case "write":
		switch {
		case u < p.Drop:
			kind = KindDrop
		case u < p.Drop+p.PartialWrite:
			kind = KindPartialWrite
		case u < p.Drop+p.PartialWrite+p.Corrupt:
			kind = KindCorrupt
		case u < p.Drop+p.PartialWrite+p.Corrupt+p.Stall:
			kind = KindStall
		}
	case "read":
		switch {
		case u < p.Drop:
			kind = KindDrop
		case u < p.Drop+p.Stall:
			kind = KindStall
		}
	}
	if kind == KindNone {
		return KindNone, n
	}
	in.faults[op]++
	in.events = append(in.events, fmt.Sprintf("%s#%d %s", op, n, kind))
	return kind, n
}

// stream returns the draws for occurrence n of op.
func (in *Injector) stream(op string, n int) stats.Stream {
	h := uint64(14695981039346656037) // FNV-1a of op
	for i := 0; i < len(op); i++ {
		h = (h ^ uint64(op[i])) * 1099511628211
	}
	var s stats.Stream
	s.Reseed(stats.DeriveSeed(in.seed^h, uint64(n)))
	return s
}

// pick returns a deterministic integer in [0, size) for occurrence n of
// op: the draw after the one that decided its fault.
func (in *Injector) pick(op string, n, size int) int {
	if size <= 0 {
		return 0
	}
	draws := in.stream(op, n)
	draws.Uint64()
	return draws.IntN(size)
}

// WrapDial decorates a dial function with dial-time faults and wraps
// every connection it opens with the injector's read/write faults.
func (in *Injector) WrapDial(dial func(addr string) (net.Conn, error)) func(addr string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		if in.decide("dial") == KindDialFail {
			return nil, fmt.Errorf("chaos: dial %s: injected failure", addr)
		}
		conn, err := dial(addr)
		if err != nil {
			return nil, err
		}
		return in.WrapConn(conn), nil
	}
}

// WrapConn wraps a single connection with the injector's read/write
// fault schedule.
func (in *Injector) WrapConn(conn net.Conn) net.Conn {
	return &faultConn{Conn: conn, in: in}
}

// faultConn injects faults around an underlying net.Conn.
type faultConn struct {
	net.Conn
	in *Injector
}

// errInjected distinguishes injected transport failures.
type errInjected string

func (e errInjected) Error() string { return "chaos: injected " + string(e) }

func (f *faultConn) Read(p []byte) (int, error) {
	switch f.in.decide("read") {
	case KindDrop:
		f.Conn.Close()
		return 0, errInjected("connection drop (read)")
	case KindStall:
		time.Sleep(f.in.stallFor())
	}
	return f.Conn.Read(p)
}

func (f *faultConn) Write(p []byte) (int, error) {
	kind, n := f.in.next("write")
	switch kind {
	case KindDrop:
		f.Conn.Close()
		return 0, errInjected("connection drop (write)")
	case KindPartialWrite:
		n := len(p) / 2
		if n > 0 {
			if m, err := f.Conn.Write(p[:n]); err != nil {
				f.Conn.Close()
				return m, err
			}
		}
		f.Conn.Close()
		return n, errInjected("partial write")
	case KindCorrupt:
		q := make([]byte, len(p))
		copy(q, p)
		corruptByte(q, f.in.pick("write", n, len(q)))
		return f.Conn.Write(q)
	case KindStall:
		time.Sleep(f.in.stallFor())
	}
	return f.Conn.Write(p)
}

func (in *Injector) stallFor() time.Duration {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.profile.StallFor
}

// corruptByte flips one byte at or after idx, skipping newlines (and
// never producing one), so message framing survives and the corruption
// must be caught by the protocol checksum rather than by a lucky
// framing error.
func corruptByte(q []byte, idx int) {
	if len(q) == 0 {
		return
	}
	for tries := 0; tries < len(q); tries++ {
		i := (idx + tries) % len(q)
		if q[i] == '\n' {
			continue
		}
		flipped := q[i] ^ 0x01
		if flipped == '\n' {
			flipped = q[i] ^ 0x02
		}
		q[i] = flipped
		return
	}
}
