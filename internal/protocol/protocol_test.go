package protocol

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// rwBuffer joins a read buffer and write buffer as one stream end.
type rwBuffer struct {
	in  *bytes.Buffer
	out *bytes.Buffer
}

func (b rwBuffer) Read(p []byte) (int, error)  { return b.in.Read(p) }
func (b rwBuffer) Write(p []byte) (int, error) { return b.out.Write(p) }

func TestSendRecvRoundTrip(t *testing.T) {
	var wire bytes.Buffer
	sender := NewConn(rwBuffer{in: &bytes.Buffer{}, out: &wire})
	msg := Message{
		Type: TypeRegister, Ver: Version,
		Snapshot: &Snapshot{Hostname: "h1", OS: "winxp", CPUGHz: 2.0, MemMB: 512, DiskGB: 80, Apps: []string{"word"}},
	}
	if err := sender.Send(msg); err != nil {
		t.Fatal(err)
	}
	receiver := NewConn(rwBuffer{in: &wire, out: &bytes.Buffer{}})
	got, err := receiver.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != TypeRegister || got.Ver != Version {
		t.Errorf("envelope mismatch: %+v", got)
	}
	if got.Snapshot == nil || got.Snapshot.Hostname != "h1" || got.Snapshot.MemMB != 512 {
		t.Errorf("snapshot mismatch: %+v", got.Snapshot)
	}
}

func TestRecvMultipleMessages(t *testing.T) {
	var wire bytes.Buffer
	s := NewConn(rwBuffer{in: &bytes.Buffer{}, out: &wire})
	for i := 0; i < 3; i++ {
		if err := s.Send(Message{Type: TypeAck, Count: i}); err != nil {
			t.Fatal(err)
		}
	}
	r := NewConn(rwBuffer{in: &wire, out: &bytes.Buffer{}})
	for i := 0; i < 3; i++ {
		m, err := r.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Count != i {
			t.Errorf("message %d out of order: %+v", i, m)
		}
	}
	if _, err := r.Recv(); err == nil {
		t.Error("expected EOF after last message")
	}
}

func TestRecvRejectsGarbage(t *testing.T) {
	r := NewConn(rwBuffer{in: bytes.NewBufferString("not json\n"), out: &bytes.Buffer{}})
	if _, err := r.Recv(); err == nil {
		t.Error("garbage accepted")
	}
	r = NewConn(rwBuffer{in: bytes.NewBufferString("{}\n"), out: &bytes.Buffer{}})
	if _, err := r.Recv(); err == nil {
		t.Error("typeless message accepted")
	}
}

func TestLargePayload(t *testing.T) {
	var wire bytes.Buffer
	s := NewConn(rwBuffer{in: &bytes.Buffer{}, out: &wire})
	payload := strings.Repeat("x", 1<<20)
	if err := s.Send(Message{Type: TypeTestcases, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	r := NewConn(rwBuffer{in: &wire, out: &bytes.Buffer{}})
	m, err := r.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Payload) != 1<<20 {
		t.Errorf("payload length = %d", len(m.Payload))
	}
}

func TestSnapshotValidate(t *testing.T) {
	good := Snapshot{Hostname: "h", OS: "linux", CPUGHz: 2, MemMB: 512}
	if err := good.Validate(); err != nil {
		t.Error(err)
	}
	bad := []Snapshot{
		{OS: "linux", CPUGHz: 2, MemMB: 512},
		{Hostname: "h", CPUGHz: 0, MemMB: 512},
		{Hostname: "h", CPUGHz: 2, MemMB: 0},
		{Hostname: "h", CPUGHz: math.NaN(), MemMB: 512},
		{Hostname: "h", CPUGHz: math.Inf(1), MemMB: 512},
		{Hostname: "h", CPUGHz: 2, MemMB: math.Inf(1)},
		{Hostname: "h", CPUGHz: 2, MemMB: 512, DiskGB: math.NaN()},
		{Hostname: "h", CPUGHz: 2, MemMB: 512, DiskGB: math.Inf(-1)},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad snapshot %d accepted", i)
		}
	}
}

func TestAsError(t *testing.T) {
	if err := AsError(Message{Type: TypeAck}); err != nil {
		t.Error("non-error message flagged")
	}
	if err := AsError(Message{Type: TypeError, Err: "boom"}); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("error message not converted: %v", err)
	}
}

func TestSendError(t *testing.T) {
	var wire bytes.Buffer
	s := NewConn(rwBuffer{in: &bytes.Buffer{}, out: &wire})
	if err := s.SendError(errTest); err != nil {
		t.Fatal(err)
	}
	r := NewConn(rwBuffer{in: &wire, out: &bytes.Buffer{}})
	m, err := r.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != TypeError || m.Err != "test failure" {
		t.Errorf("error round trip: %+v", m)
	}
}

var errTest = errorString("test failure")

type errorString string

func (e errorString) Error() string { return string(e) }
