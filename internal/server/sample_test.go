package server

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"uucs/internal/stats"
	"uucs/internal/testcase"
)

// oracleSample is the map-based selection the stored-encoding sync
// replaced, kept as the reference: a set of have-list ids, a candidate
// slice of testcases in store order, the shuffle seeded by the set's
// size, and every chosen testcase rendered afresh with EncodeAll. It
// reads the store's testcases, not their stored bytes.
func oracleSample(s *Server, clientID string, have []string, want int) (string, int) {
	s.tcMu.RLock()
	tcs := make([]*testcase.Testcase, len(s.testcases))
	for i, sl := range s.testcases {
		tcs[i] = sl.tc
	}
	s.tcMu.RUnlock()
	held := make(map[string]bool, len(have))
	for _, id := range have {
		held[id] = true
	}
	var candidates []*testcase.Testcase
	for _, tc := range tcs {
		if !held[tc.ID] {
			candidates = append(candidates, tc)
		}
	}
	if want < len(candidates) {
		h := hashID(hashMix(s.seed, 0x73616d70), clientID) // "samp"
		h = hashMix(h, uint64(len(held)))
		rng := stats.NewStream(h)
		rng.Shuffle(len(candidates), func(i, j int) {
			candidates[i], candidates[j] = candidates[j], candidates[i]
		})
		candidates = candidates[:want]
	}
	var b strings.Builder
	if err := testcase.EncodeAll(&b, candidates); err != nil {
		panic(err)
	}
	return b.String(), len(candidates)
}

// syncWant applies dispatch's default to a sync's want.
func syncWant(want int) int {
	if want <= 0 {
		return 16
	}
	return want
}

// byteIDs converts a have-list to the borrowed views a frame carries,
// keeping nil nil.
func byteIDs(ids []string) [][]byte {
	if ids == nil {
		return nil
	}
	out := make([][]byte, len(ids))
	for i, id := range ids {
		out[i] = []byte(id)
	}
	return out
}

// checkSample compares one sync against the oracle's payload and count.
func checkSample(t testing.TB, s *Server, wantPayload string, wantCount int, clientID string, have []string, want int) {
	t.Helper()
	payload, n, err := s.sample([]byte(clientID), byteIDs(have), syncWant(want))
	if err != nil {
		t.Fatalf("sample(%q, %d have, want %d): %v", clientID, len(have), want, err)
	}
	if n != wantCount || payload != wantPayload {
		t.Fatalf("sample(%q, have %q, want %d) = %d testcases (%d bytes), oracle %d (%d bytes)",
			clientID, have, want, n, len(payload), wantCount, len(wantPayload))
	}
}

// sampleBatches returns a store's two AddTestcases batches: n generated
// testcases, then a batch that re-adds every seventh id (and, twice,
// the first id) with new content, so the store holds same-ID
// replacements, including one replaced twice within a batch.
func sampleBatches(t testing.TB, n int, seed uint64) (first, second []*testcase.Testcase) {
	t.Helper()
	if n == 0 {
		return nil, nil
	}
	cfg := testcase.DefaultGeneratorConfig()
	cfg.Count, cfg.Duration = n, 20
	first, err := testcase.Generate("fz", cfg, stats.NewStream(seed))
	if err != nil {
		t.Fatal(err)
	}
	again, err := testcase.Generate("fz", cfg, stats.NewStream(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	second = append(second, again[0])
	for i := 0; i < n; i += 7 {
		second = append(second, again[i])
	}
	return first, second
}

// sampleStore is one fuzzed store: a live server, whose slots earlier
// syncs have filled, and servers restarted from the two state
// directories it left behind — a journal and a compacted snapshot.
// Neither AddTestcases nor replay renders anything, so the restarted
// servers start with every slot empty.
type sampleStore struct {
	live       *Server
	journaled  *Server
	compacted  *Server
	ids        []string // every id in store order
	replaced   []string // ids the second batch replaced
	journalDir string
	snapDir    string
}

// newSampleStore builds a store of n testcases under server seed seed.
func newSampleStore(t testing.TB, n int, seed uint64, root string) *sampleStore {
	t.Helper()
	first, second := sampleBatches(t, n, seed)
	st := &sampleStore{
		live:       New(seed),
		journalDir: filepath.Join(root, fmt.Sprintf("journal-%d", n)),
		snapDir:    filepath.Join(root, fmt.Sprintf("snapshot-%d", n)),
	}
	for _, dir := range []string{"", st.journalDir, st.snapDir} {
		s := st.live
		if dir != "" {
			s = New(seed)
			if err := s.OpenState(dir); err != nil {
				t.Fatal(err)
			}
		}
		for _, batch := range [][]*testcase.Testcase{first, second} {
			if len(batch) == 0 {
				continue
			}
			if err := s.AddTestcases(batch...); err != nil {
				t.Fatal(err)
			}
		}
		if dir == st.snapDir {
			if err := s.SaveState(dir); err != nil {
				t.Fatal(err)
			}
		}
		if dir != "" {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	st.journaled = restart(t, st.journalDir, seed)
	st.compacted = restart(t, st.snapDir, seed)
	for _, sl := range st.live.testcases {
		st.ids = append(st.ids, sl.tc.ID)
	}
	for _, tc := range second {
		st.replaced = append(st.replaced, tc.ID)
	}
	return st
}

// restart returns a fresh server loaded from dir, every slot empty.
func restart(t testing.TB, dir string, seed uint64) *Server {
	t.Helper()
	s := New(seed)
	if err := s.LoadState(dir); err != nil {
		t.Fatal(err)
	}
	return s
}

// haveList decodes a fuzzed have-list: each byte names a stored id, a
// replaced id, or one of sixteen unknown ids, so duplicates of every
// kind arise. nilList picks nil over empty when spec is empty.
func (st *sampleStore) haveList(spec []byte, nilList bool) []string {
	if len(spec) == 0 {
		if nilList {
			return nil
		}
		return []string{}
	}
	have := make([]string, 0, len(spec))
	for _, b := range spec {
		switch {
		case b >= 0xf0:
			have = append(have, fmt.Sprintf("ghost-%d", b&0x0f))
		case b >= 0xc0 && len(st.replaced) > 0:
			have = append(have, st.replaced[int(b-0xc0)%len(st.replaced)])
		case len(st.ids) > 0:
			have = append(have, st.ids[int(b)*len(st.ids)/0xc0%len(st.ids)])
		default:
			have = append(have, "ghost-empty-store")
		}
	}
	return have
}

var sampleSizes = []int{0, 1, 50, 400}

// FuzzSampleDifferential checks the index-based sample over stored
// encodings against the map-based oracle, byte for byte, on stores of
// 0, 1, 50 and 400 testcases with same-ID replacements: on the live
// server (slots filled by earlier syncs), and with every slot empty
// on a server replayed from its journal and on one loaded from a
// compacted snapshot.
func FuzzSampleDifferential(f *testing.F) {
	f.Add(uint8(0), uint8(0), "c", []byte(nil), true, 0)
	f.Add(uint8(1), uint8(1), "c", []byte{}, false, 1)
	f.Add(uint8(2), uint8(2), "uucs-0000000000000001", []byte{0, 0, 1, 0xf1, 0xf1, 0xf2, 0xc0, 0xc1}, false, 4)
	f.Add(uint8(3), uint8(0), "uucs-00000000000000ff", []byte{5, 6, 7, 8, 9, 10, 11, 12, 0xc3, 0xff}, false, 4)
	f.Add(uint8(3), uint8(1), "x", []byte{0xf0, 0xf0, 0xf0}, false, -3)
	f.Add(uint8(2), uint8(0), "y", []byte{1, 2, 3}, false, 1000)
	f.Add(uint8(3), uint8(2), "z", bytes.Repeat([]byte{0xc2, 0x11}, 40), true, 397)

	root := f.TempDir()
	stores := make([]*sampleStore, len(sampleSizes))
	f.Fuzz(func(t *testing.T, size, mode uint8, clientID string, spec []byte, nilList bool, want int) {
		i := int(size) % len(sampleSizes)
		if stores[i] == nil {
			stores[i] = newSampleStore(t, sampleSizes[i], 0x5eed+uint64(i), root)
		}
		st := stores[i]
		have := st.haveList(spec, nilList)
		wantPayload, wantCount := oracleSample(st.live, clientID, have, syncWant(want))
		s := st.live
		switch mode % 3 {
		case 1:
			s = st.journaled
		case 2:
			s = st.compacted
		}
		if s != st.live {
			// Back to the state replay leaves: every slot empty.
			for _, sl := range s.testcases {
				sl.text.Store(nil)
			}
		}
		checkSample(t, s, wantPayload, wantCount, clientID, have, want)
		// A retried sync — now from filled slots — is identical.
		checkSample(t, s, wantPayload, wantCount, clientID, have, want)
	})
}

// TestSnapshotReusesStoredEncodings: a snapshot written from a replayed
// store is byte-identical to one written from the live store: both
// encode the same testcases, replay having restored them bit for bit.
func TestSnapshotReusesStoredEncodings(t *testing.T) {
	st := newSampleStore(t, 50, 3, t.TempDir())
	replayed := restart(t, st.journalDir, st.live.seed)
	dir := t.TempDir()
	if err := replayed.SaveState(dir); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(st.snapDir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot from a replayed store differs: %d vs %d bytes", len(got), len(want))
	}
}

// TestSyncFirstUseRace syncs from several goroutines against a server
// just replayed from disk, so every sync races to fill empty slots,
// while another goroutine keeps replacing testcases with same-content
// copies. Every reply must still match the oracle; under -race this
// also checks the slot fill and swap.
func TestSyncFirstUseRace(t *testing.T) {
	st := newSampleStore(t, 200, 9, t.TempDir())
	type request struct {
		client  string
		have    []string
		want    int
		payload string
		count   int
	}
	rng := stats.NewStream(11)
	reqs := make([]request, 64)
	for i := range reqs {
		r := request{client: fmt.Sprintf("uucs-%016x", rng.Uint64()), want: 1 + rng.IntN(8)}
		for j := rng.IntN(40); j > 0; j-- {
			r.have = append(r.have, st.ids[rng.IntN(len(st.ids))])
		}
		r.payload, r.count = oracleSample(st.live, r.client, r.have, r.want)
		reqs[i] = r
	}
	s := restart(t, st.journalDir, st.live.seed)

	copies := make([]*testcase.Testcase, 0, len(st.ids)/5)
	for i := 0; i < len(st.live.testcases); i += 5 {
		text, err := st.live.testcases[i].encoding()
		if err != nil {
			t.Fatal(err)
		}
		tc, err := testcase.DecodeString(text)
		if err != nil {
			t.Fatal(err)
		}
		copies = append(copies, tc)
	}

	const readers = 4
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			for _, tc := range copies {
				select {
				case <-done:
					return
				default:
				}
				if err := s.AddTestcases(tc); err != nil {
					errs <- err
					return
				}
			}
		}
	}()
	var readersWG sync.WaitGroup
	for g := 0; g < readers; g++ {
		readersWG.Add(1)
		go func(g int) {
			defer readersWG.Done()
			for k := range reqs {
				r := reqs[(k+g*len(reqs)/readers)%len(reqs)]
				payload, n, err := s.sample([]byte(r.client), byteIDs(r.have), r.want)
				if err != nil {
					errs <- err
					return
				}
				if payload != r.payload || n != r.count {
					errs <- fmt.Errorf("reader %d: sync for %s got %d testcases (%d bytes), oracle %d (%d bytes)",
						g, r.client, n, len(payload), r.count, len(r.payload))
					return
				}
			}
		}(g)
	}
	readersWG.Wait()
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// syncBenchServer returns a warm server holding 400 testcases from the
// default generator, a 32-id have-list and a client id: the sync the
// fleet benchmark's hosts send (want 4, have-list capped at 32).
func syncBenchServer(tb testing.TB) (*Server, [][]byte, []byte) {
	tb.Helper()
	cfg := testcase.DefaultGeneratorConfig()
	cfg.Count = 400
	tcs, err := testcase.Generate("sync", cfg, stats.NewStream(1))
	if err != nil {
		tb.Fatal(err)
	}
	s := New(1)
	if err := s.AddTestcases(tcs...); err != nil {
		tb.Fatal(err)
	}
	have := make([][]byte, 32)
	for i := range have {
		have[i] = []byte(tcs[i*12].ID)
	}
	return s, have, []byte("uucs-00000000000000aa")
}

// BenchmarkServerSync times one sync's selection and reply payload on
// a warm 400-testcase store.
func BenchmarkServerSync(b *testing.B) {
	s, have, id := syncBenchServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, n, err := s.sample(id, have, 4); err != nil || n != 4 {
			b.Fatalf("sample: %d testcases, %v", n, err)
		}
	}
}
