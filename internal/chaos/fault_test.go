package chaos

import (
	"bytes"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestInjectorScriptedFaults(t *testing.T) {
	in := NewInjector(1, Profile{}).Scripted(
		ScriptFault{Op: "dial", N: 2, Kind: KindDialFail},
		ScriptFault{Op: "write", N: 1, Kind: KindDrop},
	)
	if got := in.decide("dial"); got != KindNone {
		t.Errorf("dial#1 = %v", got)
	}
	if got := in.decide("dial"); got != KindDialFail {
		t.Errorf("dial#2 = %v", got)
	}
	if got := in.decide("write"); got != KindDrop {
		t.Errorf("write#1 = %v", got)
	}
	if got := in.decide("write"); got != KindNone {
		t.Errorf("write#2 = %v", got)
	}
	want := []string{"dial#2 dialfail", "write#1 drop"}
	if !reflect.DeepEqual(in.Events(), want) {
		t.Errorf("events = %v, want %v", in.Events(), want)
	}
	if in.Faults() != 2 {
		t.Errorf("faults = %d", in.Faults())
	}
}

func TestInjectorDeterministicSchedule(t *testing.T) {
	profile := Profile{DialFail: 0.2, Drop: 0.1, PartialWrite: 0.1, Corrupt: 0.1, Stall: 0.05}
	run := func() []string {
		in := NewInjector(77, profile)
		for i := 0; i < 50; i++ {
			in.decide("dial")
			in.decide("write")
			in.decide("read")
		}
		return in.Events()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no faults drawn at these rates; schedule test is vacuous")
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed produced different schedules:\n%v\n%v", a, b)
	}
	// A different seed must (at these rates, with this op count) diverge.
	in2 := NewInjector(78, profile)
	for i := 0; i < 50; i++ {
		in2.decide("dial")
		in2.decide("write")
		in2.decide("read")
	}
	if reflect.DeepEqual(a, in2.Events()) {
		t.Error("different seeds produced identical schedules")
	}
}

func TestInjectorFaultBudget(t *testing.T) {
	// Drop applies to writes and reads, so each gets half the budget.
	in := NewInjector(3, Profile{Drop: 1.0, MaxFaults: 2})
	for i := 0; i < 10; i++ {
		in.decide("write")
		in.decide("read")
	}
	if in.Faults() != 2 {
		t.Errorf("faults = %d, want budget cap of 2", in.Faults())
	}
	if want := []string{"write#1 drop", "read#1 drop"}; !reflect.DeepEqual(in.Events(), want) {
		t.Errorf("events = %v, want %v", in.Events(), want)
	}
	// Scripted faults ignore the budget.
	in.Scripted(ScriptFault{Op: "write", N: 11, Kind: KindCorrupt})
	if got := in.decide("write"); got != KindCorrupt {
		t.Errorf("scripted fault suppressed by budget: %v", got)
	}
}

func TestWrapDialInjectsFailuresAndWrapsConns(t *testing.T) {
	in := NewInjector(1, Profile{}).Scripted(
		ScriptFault{Op: "dial", N: 1, Kind: KindDialFail},
		ScriptFault{Op: "read", N: 1, Kind: KindDrop},
	)
	nw := NewNetwork()
	ln, err := nw.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				c.Write([]byte("x"))
				c.Close()
			}(conn)
		}
	}()
	dial := in.WrapDial(nw.Dial)
	if _, err := dial("srv"); err == nil {
		t.Fatal("scripted dial failure did not fire")
	}
	conn, err := dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("scripted read drop did not fire")
	}
}

func TestFaultConnPartialWriteAndCorrupt(t *testing.T) {
	// Partial write: the peer sees a strict prefix, then EOF.
	in := NewInjector(1, Profile{}).Scripted(ScriptFault{Op: "write", N: 1, Kind: KindPartialWrite})
	a, b := net.Pipe()
	fc := in.WrapConn(a)
	got := make(chan []byte, 1)
	go func() {
		var buf bytes.Buffer
		tmp := make([]byte, 64)
		for {
			n, err := b.Read(tmp)
			buf.Write(tmp[:n])
			if err != nil {
				break
			}
		}
		got <- buf.Bytes()
	}()
	msg := []byte("0123456789")
	if _, err := fc.Write(msg); err == nil {
		t.Error("partial write reported success")
	}
	if data := <-got; len(data) >= len(msg) || !bytes.HasPrefix(msg, data) {
		t.Errorf("peer saw %q, want a strict prefix of %q", data, msg)
	}

	// Corrupt: the peer sees the full length with exactly one byte
	// changed, and the trailing newline intact.
	in2 := NewInjector(1, Profile{}).Scripted(ScriptFault{Op: "write", N: 1, Kind: KindCorrupt})
	c, d := net.Pipe()
	fc2 := in2.WrapConn(c)
	got2 := make(chan []byte, 1)
	go func() {
		buf := make([]byte, 64)
		n, _ := d.Read(buf)
		got2 <- buf[:n]
	}()
	frame := []byte("{\"type\":\"ack\"}\n")
	if _, err := fc2.Write(frame); err != nil {
		t.Fatal(err)
	}
	data := <-got2
	if len(data) != len(frame) {
		t.Fatalf("corrupt changed length: %d vs %d", len(data), len(frame))
	}
	diff := 0
	for i := range frame {
		if data[i] != frame[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Errorf("corrupt flipped %d bytes, want 1", diff)
	}
	if data[len(data)-1] != '\n' {
		t.Error("corrupt destroyed the framing newline")
	}
	c.Close()
	d.Close()
}

func TestFaultConnStall(t *testing.T) {
	in := NewInjector(1, Profile{StallFor: 60 * time.Millisecond}).
		Scripted(ScriptFault{Op: "write", N: 1, Kind: KindStall})
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	fc := in.WrapConn(a)
	// A deadline shorter than the stall must fire.
	if err := fc.SetWriteDeadline(time.Now().Add(10 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	go func() {
		buf := make([]byte, 8)
		b.Read(buf)
	}()
	if _, err := fc.Write([]byte("x")); err == nil {
		t.Error("stalled write beat a 10ms deadline")
	}
}

func TestCorruptByteNeverTouchesNewlines(t *testing.T) {
	for idx := 0; idx < 12; idx++ {
		q := []byte("ab\ncd\nef\ngh\n")
		orig := append([]byte(nil), q...)
		corruptByte(q, idx)
		if bytes.Count(q, []byte("\n")) != bytes.Count(orig, []byte("\n")) {
			t.Fatalf("idx %d changed newline count: %q", idx, q)
		}
		diff := 0
		for i := range q {
			if q[i] != orig[i] {
				diff++
				if orig[i] == '\n' || q[i] == '\n' {
					t.Fatalf("idx %d touched a newline: %q -> %q", idx, orig, q)
				}
			}
		}
		if diff != 1 {
			t.Fatalf("idx %d flipped %d bytes", idx, diff)
		}
	}
	// Degenerate inputs must not panic.
	corruptByte(nil, 0)
	all := []byte("\n\n\n")
	corruptByte(all, 1)
	if !bytes.Equal(all, []byte("\n\n\n")) {
		t.Error("all-newline buffer was modified")
	}
}

// TestInjectorScheduleIndependentOfInterleaving checks that the fault
// drawn for each occurrence of an op does not depend on how other ops
// interleave with it, nor on which op reaches the fault budget first.
func TestInjectorScheduleIndependentOfInterleaving(t *testing.T) {
	profile := Profile{DialFail: 0.2, Drop: 0.1, PartialWrite: 0.1, Corrupt: 0.1, Stall: 0.05, MaxFaults: 6}
	perOp := func(in *Injector) map[string][]string {
		got := make(map[string][]string)
		for _, e := range in.Events() {
			op := e[:strings.IndexByte(e, '#')]
			got[op] = append(got[op], e)
		}
		return got
	}
	a := NewInjector(77, profile)
	for i := 0; i < 50; i++ {
		a.decide("dial")
		a.decide("write")
		a.decide("read")
	}
	b := NewInjector(77, profile)
	for _, op := range []string{"read", "write", "dial"} {
		for i := 0; i < 50; i++ {
			b.decide(op)
		}
	}
	if a.Faults() == 0 {
		t.Fatal("no faults drawn at these rates; the test is vacuous")
	}
	if !reflect.DeepEqual(perOp(a), perOp(b)) {
		t.Errorf("interleaving changed the schedule:\n%v\n%v", perOp(a), perOp(b))
	}
	if got := a.pick("write", 3, 1000); got != b.pick("write", 3, 1000) {
		t.Errorf("pick differs between injectors with one seed: %d", got)
	}
}
