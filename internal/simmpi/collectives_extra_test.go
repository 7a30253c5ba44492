package simmpi

import (
	"sync/atomic"
	"testing"
)

func TestAllgatherInt32s(t *testing.T) {
	w, _ := NewWorld(4)
	err := w.Run(func(r *Rank) {
		// Rank i contributes i+1 values.
		data := make([]int32, r.ID()+1)
		for i := range data {
			data[i] = int32(r.ID()*100 + i)
		}
		got := r.Comm.AllgatherInt32s(data)
		if len(got) != 4 {
			panic("wrong slot count")
		}
		for rank, vals := range got {
			if len(vals) != rank+1 {
				panic("wrong per-rank length")
			}
			for i, v := range vals {
				if v != int32(rank*100+i) {
					panic("wrong value")
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgatherInt32sEmptyAndNil(t *testing.T) {
	w, _ := NewWorld(3)
	err := w.Run(func(r *Rank) {
		var data []int32
		if r.ID() == 1 {
			data = []int32{7}
		}
		got := r.Comm.AllgatherInt32s(data)
		if len(got[0]) != 0 || len(got[2]) != 0 {
			panic("empty contributions must stay empty")
		}
		if len(got[1]) != 1 || got[1][0] != 7 {
			panic("lost the only contribution")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitCommTagIsolationFromWorld(t *testing.T) {
	// Messages on the world comm and on a split comm between the same
	// global pair must not cross, given distinct tags.
	w, _ := NewWorld(2)
	err := w.Run(func(r *Rank) {
		sub := r.Comm.Split(0, r.ID())
		if r.ID() == 0 {
			sendInt(r.Comm, 1, 5, 5)
			sendInt(sub, 1, 6, 6)
		} else {
			if recvInt(sub, 0, 6) != 6 {
				panic("sub message wrong")
			}
			if recvInt(r.Comm, 0, 5) != 5 {
				panic("world message wrong")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRepeatedSplits(t *testing.T) {
	// Splitting repeatedly must produce independent, working comms.
	w, _ := NewWorld(4)
	err := w.Run(func(r *Rank) {
		c := r.Comm
		for depth := 0; depth < 3; depth++ {
			c = c.Split(c.Rank()%2, c.Rank())
			c.Barrier()
			if s := c.AllreduceInt(1, OpSum); s != c.Size() {
				panic("split comm allreduce wrong")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGlobalRankTranslation(t *testing.T) {
	w, _ := NewWorld(4)
	err := w.Run(func(r *Rank) {
		sub := r.Comm.Split(r.ID()%2, r.ID())
		g := sub.GlobalRank(sub.Rank())
		if g != r.ID() {
			panic("global rank translation wrong")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectiveReuseManyRounds(t *testing.T) {
	// Hammer generation reuse: many rounds of mixed collectives.
	w, _ := NewWorld(8)
	var total int64
	err := w.Run(func(r *Rank) {
		for i := 0; i < 200; i++ {
			switch i % 3 {
			case 0:
				r.Comm.Barrier()
			case 1:
				if s := r.Comm.AllreduceInt(i, OpMax); s != i {
					panic("max wrong")
				}
			case 2:
				v := r.Comm.AllgatherFloat64(float64(r.ID()))
				if v[3] != 3 {
					panic("gather wrong")
				}
			}
		}
		atomic.AddInt64(&total, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != 8 {
		t.Fatal("ranks lost")
	}
}
