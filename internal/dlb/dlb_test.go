package dlb

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/simmpi"
	"repro/internal/tasking"
)

// fakePool records SetWorkers calls without real goroutines.
type fakePool struct {
	mu     sync.Mutex
	target int
	max    int
}

func newFakePool(n, max int) *fakePool { return &fakePool{target: n, max: max} }

func (f *fakePool) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	if n > f.max {
		n = f.max
	}
	f.mu.Lock()
	f.target = n
	f.mu.Unlock()
}

func (f *fakePool) Workers() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.target
}

func (f *fakePool) MaxWorkers() int { return f.max }

// DLB is installed through simmpi's BlockingHooks option and lends
// through the optional park surface.
var (
	_ simmpi.BlockingHooks = (*DLB)(nil)
	_ simmpi.ParkHooks     = (*DLB)(nil)
)

// TestBlockingCallHooksLendNothing: entering a blocking call is not
// idleness yet — the call may be satisfied while spinning — so the PMPI
// bracket alone moves no core and counts nothing.
func TestBlockingCallHooksLendNothing(t *testing.T) {
	d := New(true)
	pa, pb := newFakePool(2, 8), newFakePool(2, 8)
	_ = d.Register(0, 0, pa, 2)
	_ = d.Register(1, 0, pb, 2)
	d.IntoBlockingCall(0)
	if pa.Workers() != 2 || pb.Workers() != 2 {
		t.Fatalf("blocking-call entry resized pools: %d %d", pa.Workers(), pb.Workers())
	}
	d.OutOfBlockingCall(0)
	if s := d.Snapshot(); s.Lends != 0 || s.Reclaims != 0 || len(d.Migrations()) != 0 {
		t.Fatalf("blocking-call bracket recorded activity: %+v, %d migrations", s, len(d.Migrations()))
	}
}

// TestParkPairZeroAlloc pins the rebalance's per-node scratch: a lend
// and its reclaim on registered pools allocate nothing once the
// peak-worker map has its keys and the migration log is full (it stops
// growing at maxMigrations).
func TestParkPairZeroAlloc(t *testing.T) {
	d := New(true)
	for r := 0; r < 4; r++ {
		if err := d.Register(r, 0, newFakePool(2, 8), 2); err != nil {
			t.Fatal(err)
		}
	}
	for len(d.migs) < maxMigrations {
		d.IntoPark(1)
		d.OutOfPark(1)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		d.IntoPark(1)
		d.OutOfPark(1)
	}); avg != 0 {
		t.Fatalf("IntoPark/OutOfPark pair allocates %.2f objects, want 0", avg)
	}
}

func TestLendAndReclaim(t *testing.T) {
	d := New(true)
	pa := newFakePool(2, 8)
	pb := newFakePool(2, 8)
	if err := d.Register(0, 0, pa, 2); err != nil {
		t.Fatal(err)
	}
	if err := d.Register(1, 0, pb, 2); err != nil {
		t.Fatal(err)
	}

	d.IntoPark(0)
	if got := pb.Workers(); got != 4 {
		t.Fatalf("after lend, rank 1 workers = %d, want 4", got)
	}
	if got := pa.Workers(); got != 1 {
		t.Fatalf("blocked rank pool = %d, want idle 1", got)
	}

	d.OutOfPark(0)
	if got := pb.Workers(); got != 2 {
		t.Fatalf("after reclaim, rank 1 workers = %d, want 2", got)
	}
	if got := pa.Workers(); got != 2 {
		t.Fatalf("after reclaim, rank 0 workers = %d, want 2", got)
	}

	s := d.Snapshot()
	if s.Lends != 1 || s.Reclaims != 1 {
		t.Fatalf("stats %+v", s)
	}
	if s.PeakWorkers[1] != 4 {
		t.Fatalf("peak workers of rank 1 = %d, want 4", s.PeakWorkers[1])
	}
}

func TestLendDistributionWithRemainder(t *testing.T) {
	d := New(true)
	pools := make([]*fakePool, 4)
	for i := range pools {
		pools[i] = newFakePool(3, 12)
		if err := d.Register(i, 0, pools[i], 3); err != nil {
			t.Fatal(err)
		}
	}
	// Rank 3 blocks: its 3 cores split over ranks 0,1,2 -> 4,4,4.
	d.IntoPark(3)
	total := 0
	for i := 0; i < 3; i++ {
		total += pools[i].Workers()
	}
	if total != 12 {
		t.Fatalf("active workers sum to %d, want 12 (9 owned + 3 lent)", total)
	}
	// Rank 2 blocks too: 6 lent cores over ranks 0,1 -> 6,6.
	d.IntoPark(2)
	if pools[0].Workers()+pools[1].Workers() != 12 {
		t.Fatalf("after second lend: %d + %d != 12", pools[0].Workers(), pools[1].Workers())
	}
	d.OutOfPark(2)
	d.OutOfPark(3)
	for i, p := range pools {
		if p.Workers() != 3 {
			t.Fatalf("rank %d not restored: %d", i, p.Workers())
		}
	}
}

func TestNoCrossNodeLending(t *testing.T) {
	d := New(true)
	p0 := newFakePool(2, 8)
	p1 := newFakePool(2, 8)
	if err := d.Register(0, 0, p0, 2); err != nil {
		t.Fatal(err)
	}
	if err := d.Register(1, 1, p1, 2); err != nil { // different node
		t.Fatal(err)
	}
	d.IntoPark(0)
	if p1.Workers() != 2 {
		t.Fatalf("cross-node lending occurred: %d", p1.Workers())
	}
}

func TestDisabledDLBIsNoop(t *testing.T) {
	d := New(false)
	p0 := newFakePool(2, 8)
	p1 := newFakePool(2, 8)
	_ = d.Register(0, 0, p0, 2)
	_ = d.Register(1, 0, p1, 2)
	d.IntoPark(0)
	if p1.Workers() != 2 {
		t.Fatal("disabled DLB must not lend")
	}
	s := d.Snapshot()
	if s.Lends != 0 {
		t.Fatal("disabled DLB recorded lends")
	}
}

func TestAllBlockedRestoresOwners(t *testing.T) {
	d := New(true)
	p0 := newFakePool(2, 8)
	p1 := newFakePool(2, 8)
	_ = d.Register(0, 0, p0, 2)
	_ = d.Register(1, 0, p1, 2)
	d.IntoPark(0)
	d.IntoPark(1)
	if p0.Workers() != 2 || p1.Workers() != 2 {
		t.Fatalf("all-blocked should restore owners: %d %d", p0.Workers(), p1.Workers())
	}
	d.OutOfPark(0)
	d.OutOfPark(1)
}

func TestRegisterErrors(t *testing.T) {
	d := New(true)
	p := newFakePool(1, 2)
	if err := d.Register(0, 0, p, 0); err == nil {
		t.Fatal("want error for zero cores")
	}
	if err := d.Register(0, 0, p, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.Register(0, 0, p, 1); err == nil {
		t.Fatal("want error for duplicate rank")
	}
	if d.WorkersOf(99) != 0 {
		t.Fatal("unknown rank should report 0 workers")
	}
}

func TestIdempotentHooks(t *testing.T) {
	d := New(true)
	p0 := newFakePool(2, 8)
	p1 := newFakePool(2, 8)
	_ = d.Register(0, 0, p0, 2)
	_ = d.Register(1, 0, p1, 2)
	d.IntoPark(0)
	d.IntoPark(0) // double-enter must not double-lend
	if p1.Workers() != 4 {
		t.Fatalf("workers %d, want 4", p1.Workers())
	}
	d.OutOfPark(0)
	d.OutOfPark(0)
	if p1.Workers() != 2 {
		t.Fatalf("workers %d, want 2", p1.Workers())
	}
	s := d.Snapshot()
	if s.Lends != 1 || s.Reclaims != 1 {
		t.Fatalf("hooks not idempotent: %+v", s)
	}
}

// Integration: an imbalanced MPI+tasking run where rank 0 finishes early
// and parks in a receive; DLB lends its cores to rank 1, which must
// observe increased pool concurrency while rank 0 waits. Rank 1 starts
// its work only once the lend happened, so the receive is forced past
// any spin budget at every GOMAXPROCS.
func TestDLBWithSimMPIAndRealPools(t *testing.T) {
	d := New(true)
	world, err := simmpi.NewWorld(2, simmpi.WithRanksPerNode(2), simmpi.WithBlockingHooks(d))
	if err != nil {
		t.Fatal(err)
	}
	pools := [2]*tasking.Pool{tasking.NewPool(4), tasking.NewPool(4)}
	defer pools[0].Close()
	defer pools[1].Close()
	pools[0].SetWorkers(2)
	pools[1].SetWorkers(2)
	if err := d.Register(0, 0, pools[0], 2); err != nil {
		t.Fatal(err)
	}
	if err := d.Register(1, 0, pools[1], 2); err != nil {
		t.Fatal(err)
	}

	var rank1Peak int32
	err = world.Run(func(r *simmpi.Rank) {
		pool := pools[r.ID()]
		switch r.ID() {
		case 0:
			// Tiny workload, then block waiting for rank 1.
			pool.ParallelFor(4, 1, func(lo, hi int) {})
			r.Comm.RecvFloat64Buf(1, 1).Release()
		case 1:
			// Heavy workload; record the pool's target while running.
			for d.Snapshot().Lends == 0 { // let rank 0 park
				time.Sleep(100 * time.Microsecond)
			}
			pool.ParallelFor(64, 1, func(lo, hi int) {
				w := int32(pool.Workers())
				for {
					p := atomic.LoadInt32(&rank1Peak)
					if w <= p || atomic.CompareAndSwapInt32(&rank1Peak, p, w) {
						break
					}
				}
				time.Sleep(100 * time.Microsecond)
			})
			r.Comm.SendFloat64s(0, 1, nil)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt32(&rank1Peak); got < 3 {
		t.Fatalf("rank 1 never borrowed cores: peak workers %d, want >= 3", got)
	}
	if pools[1].Workers() != 2 {
		t.Fatalf("cores not reclaimed after run: %d", pools[1].Workers())
	}
}

func TestMigrationLogRecordsEffectiveResizes(t *testing.T) {
	d := New(true)
	pa := newFakePool(2, 8)
	pb := newFakePool(2, 8)
	if err := d.Register(0, 0, pa, 2); err != nil {
		t.Fatal(err)
	}
	if err := d.Register(1, 0, pb, 2); err != nil {
		t.Fatal(err)
	}
	if len(d.Migrations()) != 0 {
		t.Fatalf("migrations before any park: %v", d.Migrations())
	}

	d.IntoPark(0) // rank 0 lends: rank 1 -> 4 workers, rank 0 -> 1
	migs := d.Migrations()
	if len(migs) == 0 {
		t.Fatal("no migrations recorded for an effective resize")
	}
	sawBorrow := false
	for _, m := range migs {
		if m.Rank == 1 && m.Workers == 4 {
			sawBorrow = true
		}
		if m.At < 0 {
			t.Fatalf("negative migration offset: %v", m.At)
		}
	}
	if !sawBorrow {
		t.Fatalf("rank 1 borrow not logged: %v", migs)
	}

	// A redundant rebalance (same targets) must not grow the log.
	before := len(d.Migrations())
	d.IntoPark(0) // idempotent hook: already blocked
	if got := len(d.Migrations()); got != before {
		t.Fatalf("redundant transition grew the log: %d -> %d", before, got)
	}

	d.OutOfPark(0) // reclaim: both back to 2... rank 0 1->2, rank 1 4->2
	after := d.Migrations()
	if len(after) <= before {
		t.Fatal("reclaim recorded no migrations")
	}
	// The returned slice is a copy: mutating it must not corrupt the log.
	after[0].Workers = -99
	if d.Migrations()[0].Workers == -99 {
		t.Fatal("Migrations returned internal storage")
	}
}

func TestDisabledDLBLogsNoMigrations(t *testing.T) {
	d := New(false)
	p := newFakePool(2, 8)
	if err := d.Register(0, 0, p, 2); err != nil {
		t.Fatal(err)
	}
	d.IntoPark(0)
	d.OutOfPark(0)
	if n := len(d.Migrations()); n != 0 {
		t.Fatalf("disabled DLB logged %d migrations", n)
	}
}
