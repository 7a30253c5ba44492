package telemetry

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/trace"
)

// phaseRow builds one phase-interval row.
func phaseRow(rank int32, p trace.Phase, start, end float64) Row {
	return Row{Rank: rank, Kind: KindPhase, Phase: p, Start: start, End: end}
}

// appendTimeline writes nRanks sequential timelines of perRank
// intervals each (interval i of rank r spans [i, i+1)) in the store's
// canonical append order, and returns the total row count.
func appendTimeline(t *testing.T, w *RunWriter, nRanks, perRank int) int {
	t.Helper()
	for r := int32(0); r < int32(nRanks); r++ {
		for i := 0; i < perRank; i++ {
			w.Append(phaseRow(r, trace.Phase(i%int(trace.NumPhases)), float64(i), float64(i+1)))
		}
	}
	return nRanks * perRank
}

func TestRowEncodeDecodeRoundTrip(t *testing.T) {
	rows := []Row{
		{},
		{Rank: -1, Step: 7, Kind: KindStep, Start: 3.5, End: 3.5},
		{Rank: 123, Kind: KindPhase, Phase: trace.PhaseParticles, Start: 0.1, End: 0.30000000000000004},
		{Rank: -1, Step: 2, Kind: KindMigration, Aux: 48, Start: 1e-9, End: 1e-9},
		{Rank: -1, Kind: KindQueueWait, End: 0.25},
		{Rank: math.MaxInt32, Step: math.MinInt32, Kind: KindPhase, Phase: trace.PhaseOther,
			Start: math.SmallestNonzeroFloat64, End: math.MaxFloat64},
	}
	var buf [RowSize]byte
	for i, r := range rows {
		r.encode(buf[:])
		if got := decodeRow(buf[:]); got != r {
			t.Errorf("row %d: decode(encode(%+v)) = %+v", i, r, got)
		}
	}
}

func TestKindStringParseRoundTrip(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		got, ok := ParseKind(k.String())
		if !ok || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, ok)
		}
	}
	if _, ok := ParseKind("nope"); ok {
		t.Error("ParseKind accepted an unknown name")
	}
}

func TestEmptyStore(t *testing.T) {
	st := NewMemStore()
	if n := st.RunCount(); n != 0 {
		t.Fatalf("RunCount = %d", n)
	}
	if runs := st.Runs(); len(runs) != 0 {
		t.Fatalf("Runs = %v", runs)
	}
	if _, err := st.Query("missing", Query{}); err == nil {
		t.Fatal("Query of unknown run succeeded")
	}
	if _, _, err := st.Trace("missing"); err == nil {
		t.Fatal("Trace of unknown run succeeded")
	}
}

func TestSingleChunkQueryBoundaries(t *testing.T) {
	st := NewMemStore()
	w, err := st.BeginRun(RunMeta{Run: "r1"})
	if err != nil {
		t.Fatal(err)
	}
	total := appendTimeline(t, w, 3, 4) // intervals [0,1) [1,2) [2,3) [3,4) per rank
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := w.Rows(); got != total {
		t.Fatalf("Rows = %d, want %d", got, total)
	}

	cases := []struct {
		name string
		q    Query
		want int
	}{
		{"all", Query{}, total},
		{"one rank", Query{Rank: 1, HasRank: true}, 4},
		{"missing rank", Query{Rank: 9, HasRank: true}, 0},
		{"window", Query{From: 1.5, To: 2.5}, 3 * 2},                          // [1,2] and [2,3] touch per rank
		{"closed upper bound", Query{From: 4, To: 9}, 3},                      // only [3,4] End==4 touches
		{"rank and window", Query{Rank: 2, HasRank: true, From: 0, To: 1}, 2}, // [0,1],[1,2] (Start==To)
		{"unbounded above", Query{From: 3}, 3 * 2},
	}
	for _, tc := range cases {
		rows, err := st.Query("r1", tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(rows) != tc.want {
			t.Errorf("%s: got %d rows, want %d", tc.name, len(rows), tc.want)
		}
	}
}

func TestQuerySpanningChunks(t *testing.T) {
	st := NewMemStore(WithChunkRows(4)) // force many tiny chunks
	w, err := st.BeginRun(RunMeta{Run: "r1"})
	if err != nil {
		t.Fatal(err)
	}
	const nRanks, perRank = 5, 10
	appendTimeline(t, w, nRanks, perRank)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rows, err := st.Query("r1", Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != nRanks*perRank {
		t.Fatalf("full query: %d rows, want %d", len(rows), nRanks*perRank)
	}
	// Append order must be preserved across chunk boundaries.
	for i := 1; i < len(rows); i++ {
		if rows[i].Rank < rows[i-1].Rank {
			t.Fatalf("row %d out of rank order: %d after %d", i, rows[i].Rank, rows[i-1].Rank)
		}
		if rows[i].Rank == rows[i-1].Rank && rows[i].Start < rows[i-1].Start {
			t.Fatalf("row %d out of time order", i)
		}
	}

	// A rank whose segment spans chunks (4 rows/chunk, 10 rows/rank).
	got, err := st.Query("r1", Query{Rank: 2, HasRank: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != perRank {
		t.Fatalf("rank query: %d rows, want %d", len(got), perRank)
	}
	// A window spanning chunks inside one rank.
	got, err = st.Query("r1", Query{Rank: 3, HasRank: true, From: 2.5, To: 7.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 { // [2,3] ... [7,8]
		t.Fatalf("window query: %d rows, want 6", len(got))
	}
}

func TestUnsortedRowsFallBackToLinearScan(t *testing.T) {
	st := NewMemStore()
	w, err := st.BeginRun(RunMeta{Run: "r1"})
	if err != nil {
		t.Fatal(err)
	}
	// Violate the append-order invariant on purpose.
	w.Append(
		phaseRow(2, trace.PhaseMPI, 5, 6),
		phaseRow(0, trace.PhaseMPI, 0, 1),
		phaseRow(2, trace.PhaseMPI, 1, 2),
	)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rows, err := st.Query("r1", Query{Rank: 2, HasRank: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2 (linear fallback must still be correct)", len(rows))
	}
}

func TestAutoAssignedRunIDs(t *testing.T) {
	st := NewMemStore()
	w1, err := st.BeginRun(RunMeta{})
	if err != nil {
		t.Fatal(err)
	}
	w2, err := st.BeginRun(RunMeta{})
	if err != nil {
		t.Fatal(err)
	}
	if w1.Run() == w2.Run() || w1.Run() == "" {
		t.Fatalf("auto IDs %q, %q", w1.Run(), w2.Run())
	}
}

func TestBeginRunRejectsDuplicatesAndBadIDs(t *testing.T) {
	st := NewMemStore()
	if _, err := st.BeginRun(RunMeta{Run: "r1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.BeginRun(RunMeta{Run: "r1"}); err == nil {
		t.Fatal("duplicate run accepted")
	}
	for _, bad := range []string{".", "..", "a/b", "x y", string(make([]byte, 200))} {
		if _, err := st.BeginRun(RunMeta{Run: bad}); err == nil {
			t.Fatalf("run ID %q accepted", bad)
		}
	}
}

func TestFileStoreReloadServesIdenticalRows(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenDir(dir, WithChunkRows(4))
	if err != nil {
		t.Fatal(err)
	}
	w, err := st.BeginRun(RunMeta{Run: "r1", Scenario: "test", Mode: "synchronous", Ranks: 3, Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	appendTimeline(t, w, 3, 6)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := st.Query("r1", Query{})
	if err != nil {
		t.Fatal(err)
	}

	st2, err := OpenDir(dir, WithChunkRows(4))
	if err != nil {
		t.Fatal(err)
	}
	meta, ok := st2.Meta("r1")
	if !ok || !meta.Complete || meta.Rows != len(want) || meta.Scenario != "test" {
		t.Fatalf("reloaded meta = %+v ok=%v", meta, ok)
	}
	got, err := st2.Query("r1", Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("reloaded %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d differs after reload: %+v != %+v", i, got[i], want[i])
		}
	}
}

func TestCrashTruncatedTailChunkRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenDir(dir, WithChunkRows(8))
	if err != nil {
		t.Fatal(err)
	}
	w, err := st.BeginRun(RunMeta{Run: "r1", Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	total := appendTimeline(t, w, 2, 10) // 20 rows: chunks of 8, 8, 4
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash: the writer never closes (meta stays
	// non-finalized) and the tail chunk loses half a row.
	tail := filepath.Join(dir, "r1", chunkName(2))
	info, err := os.Stat(tail)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(tail, info.Size()-RowSize/2); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenDir(dir, WithChunkRows(8))
	if err != nil {
		t.Fatal(err)
	}
	meta, ok := st2.Meta("r1")
	if !ok {
		t.Fatal("crashed run not discovered")
	}
	if meta.Complete {
		t.Fatal("crashed run reported Complete")
	}
	if meta.Rows != total-1 {
		t.Fatalf("recovered Rows = %d, want %d (torn tail row dropped)", meta.Rows, total-1)
	}
	rows, err := st2.Query("r1", Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != total-1 {
		t.Fatalf("recovered query returned %d rows, want %d", len(rows), total-1)
	}
	// Every surviving row decodes intact.
	for i, r := range rows {
		if r.Kind != KindPhase || r.End != r.Start+1 {
			t.Fatalf("recovered row %d corrupt: %+v", i, r)
		}
	}
}

func TestQueryObservesFlushedPrefixDuringWrite(t *testing.T) {
	st := NewMemStore(WithChunkRows(4))
	w, err := st.BeginRun(RunMeta{Run: "r1"})
	if err != nil {
		t.Fatal(err)
	}
	w.Append(phaseRow(0, trace.PhaseMPI, 0, 1), phaseRow(0, trace.PhaseMPI, 1, 2))
	rows, err := st.Query("r1", Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("unflushed rows visible: %d", len(rows))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	rows, err = st.Query("r1", Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("flushed prefix: %d rows, want 2", len(rows))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAppendAndQuery(t *testing.T) {
	st := NewMemStore(WithChunkRows(16))
	w, err := st.BeginRun(RunMeta{Run: "r1"})
	if err != nil {
		t.Fatal(err)
	}
	const nRows = 2000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < nRows; i++ {
			w.Append(phaseRow(int32(i/100), trace.PhaseAssembly, float64(i%100), float64(i%100+1)))
		}
		w.Close() //nolint:errcheck
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := 0
			for {
				rows, err := st.Query("r1", Query{})
				if err != nil {
					t.Errorf("concurrent query: %v", err)
					return
				}
				if len(rows) < prev {
					t.Errorf("row count went backwards: %d -> %d", prev, len(rows))
					return
				}
				prev = len(rows)
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	<-done
	wg.Wait()
	rows, err := st.Query("r1", Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != nRows {
		t.Fatalf("final count %d, want %d", len(rows), nRows)
	}
}

func TestAppendIsAllocationFreeWithinAChunk(t *testing.T) {
	st := NewMemStore(WithChunkRows(1 << 20)) // never flush during the measurement
	w, err := st.BeginRun(RunMeta{Run: "r1"})
	if err != nil {
		t.Fatal(err)
	}
	r := phaseRow(0, trace.PhaseSolver1, 1, 2)
	allocs := testing.AllocsPerRun(10000, func() { w.Append(r) })
	if allocs > 0 {
		t.Fatalf("Append allocates %.2f per row; the hot-path contract is 0 within a chunk", allocs)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWriterAfterCloseDropsRows(t *testing.T) {
	st := NewMemStore()
	w, err := st.BeginRun(RunMeta{Run: "r1"})
	if err != nil {
		t.Fatal(err)
	}
	w.Append(phaseRow(0, trace.PhaseMPI, 0, 1))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w.Append(phaseRow(0, trace.PhaseMPI, 1, 2)) // must not panic or record
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rows, err := st.Query("r1", Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("%d rows after post-close append, want 1", len(rows))
	}
}

func TestRunsOrderedOldestFirst(t *testing.T) {
	st := NewMemStore()
	for i := 0; i < 5; i++ {
		w, err := st.BeginRun(RunMeta{Run: fmt.Sprintf("r%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	runs := st.Runs()
	if len(runs) != 5 {
		t.Fatalf("%d runs", len(runs))
	}
	for i := 1; i < len(runs); i++ {
		if runs[i].Created.Before(runs[i-1].Created) {
			t.Fatalf("runs out of Created order at %d", i)
		}
	}
}

func TestTraceRoundTripRendersByteIdentically(t *testing.T) {
	// Build an in-memory trace with awkward float durations, persist it
	// through the row pipeline, and demand a byte-identical render.
	tr := trace.NewTrace(3)
	for r, rt := range tr.Ranks {
		for i := 0; i < 40; i++ {
			rt.Advance(trace.Phase(i%int(trace.NumPhases)), 0.1*float64(r+1)+1e-9*float64(i))
			rt.AlignTo(rt.Clock() + 0.05/3)
		}
	}
	want := tr.Render(97, 8)

	st := NewMemStore(WithChunkRows(16))
	w, err := st.BeginRun(RunMeta{Run: "r1", Ranks: len(tr.Ranks)})
	if err != nil {
		t.Fatal(err)
	}
	for r, rt := range tr.Ranks {
		for _, e := range rt.Events() {
			w.Append(Row{Rank: int32(r), Kind: KindPhase, Phase: e.Phase, Start: e.Start, End: e.End})
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, _, err := st.Trace("r1")
	if err != nil {
		t.Fatal(err)
	}
	if got.MaxClock() != tr.MaxClock() {
		t.Fatalf("MaxClock %v != %v", got.MaxClock(), tr.MaxClock())
	}
	if rendered := got.Render(97, 8); rendered != want {
		t.Fatalf("reloaded render differs:\n--- want\n%s--- got\n%s", want, rendered)
	}
}
