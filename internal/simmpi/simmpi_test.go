package simmpi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorldSizeValidation(t *testing.T) {
	if _, err := NewWorld(0); err == nil {
		t.Fatal("want error for size 0")
	}
}

func TestNodeTopology(t *testing.T) {
	w, err := NewWorld(10, WithRanksPerNode(4))
	if err != nil {
		t.Fatal(err)
	}
	if w.NumNodes() != 3 {
		t.Fatalf("nodes=%d, want 3", w.NumNodes())
	}
	if w.NodeOf(0) != 0 || w.NodeOf(3) != 0 || w.NodeOf(4) != 1 || w.NodeOf(9) != 2 {
		t.Fatal("wrong node mapping")
	}
	if got := w.RanksOnNode(2); len(got) != 2 || got[0] != 8 || got[1] != 9 {
		t.Fatalf("ranks on node 2 = %v", got)
	}
}

// sendInt and recvInt carry one int as a one-value float64 message, the
// leased-buffer path every payload takes.
func sendInt(c *Comm, dst, tag, v int) { c.SendFloat64s(dst, tag, []float64{float64(v)}) }

func recvInt(c *Comm, src, tag int) int {
	b := c.RecvFloat64Buf(src, tag)
	defer b.Release()
	return int(b.Data[0])
}

func TestSendRecvBasic(t *testing.T) {
	w, _ := NewWorld(2)
	err := w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Comm.SendFloat64s(1, 7, []float64{1, 2, 3})
		case 1:
			got := r.Comm.RecvFloat64sInto(0, 7, nil)
			if len(got) != 3 || got[2] != 3 {
				panic("bad payload")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvFIFOOrdering(t *testing.T) {
	w, _ := NewWorld(2)
	const n = 200
	err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			for i := 0; i < n; i++ {
				sendInt(r.Comm, 1, 1, i)
			}
		} else {
			for i := 0; i < n; i++ {
				if got := recvInt(r.Comm, 0, 1); got != i {
					panic("out of order")
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagIsolation(t *testing.T) {
	w, _ := NewWorld(2)
	err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			sendInt(r.Comm, 1, 2, 2)
			sendInt(r.Comm, 1, 1, 1)
		} else {
			if got := recvInt(r.Comm, 0, 1); got != 1 {
				panic("tag mismatch")
			}
			if got := recvInt(r.Comm, 0, 2); got != 2 {
				panic("tag mismatch")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesData(t *testing.T) {
	w, _ := NewWorld(2)
	err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			buf := []float64{42}
			r.Comm.SendFloat64s(1, 0, buf)
			buf[0] = -1 // mutate after send; receiver must see 42
		} else {
			time.Sleep(time.Millisecond)
			if got := r.Comm.RecvFloat64sInto(0, 0, nil); got[0] != 42 {
				panic("send did not copy")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvExchange(t *testing.T) {
	w, _ := NewWorld(2)
	err := w.Run(func(r *Rank) {
		peer := 1 - r.ID()
		sendInt(r.Comm, peer, 3, r.ID()*10)
		got := recvInt(r.Comm, peer, 3)
		if got != peer*10 {
			panic("exchange value wrong")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	w, _ := NewWorld(8)
	var before, after int32
	err := w.Run(func(r *Rank) {
		atomic.AddInt32(&before, 1)
		r.Comm.Barrier()
		if atomic.LoadInt32(&before) != 8 {
			panic("barrier released early")
		}
		atomic.AddInt32(&after, 1)
		r.Comm.Barrier()
		if atomic.LoadInt32(&after) != 8 {
			panic("second barrier released early")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceOps(t *testing.T) {
	w, _ := NewWorld(6)
	err := w.Run(func(r *Rank) {
		v := float64(r.ID() + 1)
		if s := r.Comm.AllreduceFloat64(v, OpSum); s != 21 {
			panic("sum")
		}
		if m := r.Comm.AllreduceFloat64(v, OpMax); m != 6 {
			panic("max")
		}
		if m := r.Comm.AllreduceFloat64(v, OpMin); m != 1 {
			panic("min")
		}
		if s := r.Comm.AllreduceInt(r.ID(), OpSum); s != 15 {
			panic("int sum")
		}
		if m := r.Comm.AllreduceInt(r.ID(), OpMax); m != 5 {
			panic("int max")
		}
		if m := r.Comm.AllreduceInt(r.ID(), OpMin); m != 0 {
			panic("int min")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgather(t *testing.T) {
	w, _ := NewWorld(5)
	err := w.Run(func(r *Rank) {
		vals := r.Comm.AllgatherFloat64(float64(r.ID() * 2))
		for i, v := range vals {
			if v != float64(i*2) {
				panic("allgather float")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplit(t *testing.T) {
	w, _ := NewWorld(6)
	err := w.Run(func(r *Rank) {
		color := r.ID() % 2
		sub := r.Comm.Split(color, r.ID())
		if sub.Size() != 3 {
			panic("split size")
		}
		// Ranks within the split comm are ordered by key (= global id).
		want := r.ID() / 2
		if sub.Rank() != want {
			panic("split rank order")
		}
		// Collectives work inside the split comm.
		sum := sub.AllreduceInt(r.ID(), OpSum)
		if color == 0 && sum != 0+2+4 {
			panic("split collective even")
		}
		if color == 1 && sum != 1+3+5 {
			panic("split collective odd")
		}
		// P2P inside split comm.
		if sub.Rank() == 0 {
			sendInt(sub, 1, 9, 42)
		}
		if sub.Rank() == 1 {
			if recvInt(sub, 0, 9) != 42 {
				panic("split p2p")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitReverseKeyOrder(t *testing.T) {
	w, _ := NewWorld(4)
	err := w.Run(func(r *Rank) {
		sub := r.Comm.Split(0, -r.ID()) // reverse order
		if sub.Rank() != 3-r.ID() {
			panic("reverse key order not honored")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	w, _ := NewWorld(2)
	err := w.Run(func(r *Rank) {
		if r.ID() == 1 {
			panic("rank failure")
		}
	})
	if err == nil {
		t.Fatal("want error from panicking rank")
	}
}

type hookRecorder struct {
	mu     sync.Mutex
	enters map[int]int
	exits  map[int]int
}

func (h *hookRecorder) IntoBlockingCall(rank int) {
	h.mu.Lock()
	h.enters[rank]++
	h.mu.Unlock()
}

func (h *hookRecorder) OutOfBlockingCall(rank int) {
	h.mu.Lock()
	h.exits[rank]++
	h.mu.Unlock()
}

func TestBlockingHooksFire(t *testing.T) {
	h := &hookRecorder{enters: map[int]int{}, exits: map[int]int{}}
	w, _ := NewWorld(2, WithBlockingHooks(h))
	err := w.Run(func(r *Rank) {
		r.Comm.Barrier()
		if r.ID() == 1 {
			// This receive blocks until rank 0 sends.
			recvInt(r.Comm, 0, 5)
		} else {
			time.Sleep(2 * time.Millisecond)
			sendInt(r.Comm, 1, 5, 0)
		}
		r.Comm.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.enters[1] < 3 { // 2 barriers + 1 blocking recv
		t.Fatalf("rank 1 enters=%d, want >=3", h.enters[1])
	}
	for r := 0; r < 2; r++ {
		if h.enters[r] != h.exits[r] {
			t.Fatalf("rank %d enters=%d exits=%d", r, h.enters[r], h.exits[r])
		}
	}
}

func TestManyRanksStress(t *testing.T) {
	w, _ := NewWorld(96, WithRanksPerNode(48))
	var total int64
	err := w.Run(func(r *Rank) {
		// Ring exchange + allreduce, several rounds.
		for round := 0; round < 5; round++ {
			next := (r.Comm.Rank() + 1) % r.Size()
			prev := (r.Comm.Rank() + r.Size() - 1) % r.Size()
			sendInt(r.Comm, next, round, r.ID())
			got := recvInt(r.Comm, prev, round)
			if got != r.World().RanksOnNode(0)[0]+prev {
				// prev's global id == prev since world comm.
				if got != prev {
					panic("ring value")
				}
			}
			s := r.Comm.AllreduceInt(1, OpSum)
			if s != 96 {
				panic("allreduce count")
			}
		}
		atomic.AddInt64(&total, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != 96 {
		t.Fatalf("only %d ranks completed", total)
	}
}

// errSentinel is a typed error a rank body panics with; the World.Run
// recovery must wrap it with %w so errors.Is still reaches it — the
// path numerical-health errors take from a rank body to the service's
// retry classifier.
var errSentinel = errors.New("typed step failure")

func TestRunWrapsTypedErrorPanic(t *testing.T) {
	w, _ := NewWorld(2)
	err := w.Run(func(r *Rank) {
		if r.ID() == 1 {
			panic(fmt.Errorf("step 3: %w", errSentinel))
		}
	})
	if !errors.Is(err, errSentinel) {
		t.Fatalf("err = %v; typed cause lost through the panic boundary", err)
	}
}
