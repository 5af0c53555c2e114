package main

import (
	"path/filepath"
	"testing"
)

// A hand-built tree:
//
//	bench.round      [0, 100]
//	  server.a       [10, 40]
//	    core.x       [15, 20]
//	  server.b       [30, 60]   overlaps server.a
//	  cluster.c      [90, 120]  runs past its parent
var handSpans = []span{
	{ID: 1, Name: "bench.round", Start: 0, End: 100},
	{ID: 2, Parent: 1, Name: "server.a", Start: 10, End: 40},
	{ID: 3, Parent: 2, Name: "core.x", Start: 15, End: 20},
	{ID: 4, Parent: 1, Name: "server.b", Start: 30, End: 60},
	{ID: 5, Parent: 1, Name: "cluster.c", Start: 90, End: 120},
}

func TestSelfTimes(t *testing.T) {
	got := selfTimes(handSpans)
	// round: 100 - [10,60] - [90,100] = 40; a: 30 - 5; others leaves.
	want := []int64{40, 25, 5, 30, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s self = %d, want %d", handSpans[i].Name, got[i], want[i])
		}
	}
}

func TestLayerSelfMs(t *testing.T) {
	scaled := make([]span, len(handSpans))
	for i, s := range handSpans {
		s.Start, s.End = s.Start*1e6, s.End*1e6 // ms
		scaled[i] = s
	}
	got := layerSelfMs(scaled)
	want := map[string]float64{"bench": 40, "server": 55, "core": 5, "cluster": 30}
	if len(got) != len(want) {
		t.Errorf("layers %v, want %v", got, want)
	}
	for l, w := range want {
		if got[l] != w {
			t.Errorf("layer %s self = %v ms, want %v", l, got[l], w)
		}
	}
}

func TestLanesShareRequestIDs(t *testing.T) {
	tr := newTracer()
	ln := tr.lane()
	up := ln.begin("bench.upload", 0, 0)
	id := ln.id(up)
	send := ln.begin("protocol.send", id, id)
	ln.end(send)
	ln.end(up)
	ln.close()
	var nilLane *lane // untraced paths record nothing
	nilLane.end(nilLane.begin("bench.upload", 0, 0))
	nilLane.close()

	spans := tr.all()
	if len(spans) != 2 {
		t.Fatalf("%d spans, want 2", len(spans))
	}
	if spans[0].Req != spans[0].ID || spans[1].Req != spans[0].ID || spans[1].Parent != spans[0].ID {
		t.Errorf("request ids not shared: %+v", spans)
	}
	if err := writeSpans(filepath.Join(t.TempDir(), "spans.jsonl"), spans); err != nil {
		t.Fatal(err)
	}
}
