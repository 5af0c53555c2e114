package core

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzDecodeRuns exercises the run-record decoder with arbitrary input:
// the server feeds client uploads straight into it, so it must never
// panic, and encode∘decode must be a fixed point on anything accepted.
func FuzzDecodeRuns(f *testing.F) {
	seed := []string{
		"",
		"run t\ntask word\nuser 3\noutcome discomfort 42.5\nprimary cpu\nlevel cpu 1.5\nlastfive cpu 1 2 3 4 5\nevents 10\nendrun\n",
		"run t\ntask quake\nuser 0\noutcome exhausted 120\nlevel cpu 0\nevents 0\nload 0 1 0.5 2\nendrun\n",
		"run t\nendrun\n",
		"run t\noutcome bogus 1\nendrun\n",
		"garbage\n",
		"run t\nlevel cpu nan\nendrun\n",
		"run t\nuser -5\nendrun\n",
	}
	for _, s := range seed {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		runs, err := DecodeRuns(strings.NewReader(input))
		if err != nil {
			return
		}
		// Encoding is canonical: whatever was accepted re-decodes, and
		// a second round trip reproduces the first encoding exactly.
		first := AppendRuns(nil, runs, true)
		again, err := ParseRuns(first)
		if err != nil {
			t.Fatalf("re-encoded form failed to decode: %v\n%s", err, first)
		}
		if second := AppendRuns(nil, again, true); !bytes.Equal(second, first) {
			t.Fatalf("encoding is not a fixed point:\nfirst  %q\nsecond %q", first, second)
		}
	})
}
