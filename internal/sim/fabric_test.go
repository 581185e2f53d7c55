package sim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestSendRecycleShardSafety pins the SendRecycle ownership contract
// the sharded fabric relies on: a pooled frame buffer never crosses
// shard ownership. Cross-shard, the frame is copied into a
// fabric-owned transfer buffer and recycle(data) runs synchronously
// inside the sender's Send call; the receiving shard sees a slice with
// different backing storage. Intra-shard, delivery aliases the
// sender's buffer and recycle runs after the receive handler.
func TestSendRecycleShardSafety(t *testing.T) {
	f := NewFabric(1, 2, 2)
	a, b := f.Connect(0, 1, "a", "b", 100, 500)

	buf := make([]byte, 64)
	for i := range buf {
		buf[i] = byte(i)
	}

	var got []byte
	b.SetReceiver(func(data []byte) {
		got = append([]byte(nil), data...)
		if &data[0] == &buf[0] {
			t.Error("cross-shard delivery aliased the sender's pooled buffer")
		}
	})

	recycled := false
	a.SendRecycle(buf, func(data []byte) {
		if &data[0] != &buf[0] {
			t.Error("recycle invoked with a different buffer than was sent")
		}
		recycled = true
	})
	if !recycled {
		t.Fatal("cross-shard SendRecycle must invoke recycle synchronously, on the sending shard")
	}
	// The sender may reuse the buffer immediately; the copy in flight
	// must be unaffected.
	for i := range buf {
		buf[i] = 0xFF
	}

	f.Run()
	if len(got) != 64 || got[0] != 0 || got[63] != 63 {
		t.Fatalf("receiver saw corrupted frame: len=%d got[0]=%d got[63]=%d", len(got), got[0], got[63])
	}

	// Intra-shard (same node): zero-copy aliasing, recycle after receive.
	s := f.Node(0)
	c, d := Connect(s, "c", "d", 100, 0)
	recycled = false
	d.SetReceiver(func(data []byte) {
		if &data[0] != &buf[0] {
			t.Error("intra-shard delivery should alias the sender's buffer")
		}
		if recycled {
			t.Error("intra-shard recycle ran before the receive handler")
		}
	})
	c.SendRecycle(buf, func(data []byte) { recycled = true })
	f.Run()
	if !recycled {
		t.Fatal("intra-shard SendRecycle never invoked recycle")
	}
}

// TestFabricMatchesSingleSimulator runs the same two-node ping-pong on
// a 2-shard fabric and on one simulator and requires identical virtual
// end times and event counts — the sharded loop is an implementation
// detail, not a semantic change.
func TestFabricMatchesSingleSimulator(t *testing.T) {
	run := func(a, b *Port, drain func() Time) (Time, uint64) {
		const rounds = 50
		n := 0
		b.SetReceiver(func(data []byte) { b.Send(append([]byte(nil), data...)) })
		a.SetReceiver(func(data []byte) {
			n++
			if n < rounds {
				a.Send(append([]byte(nil), data...))
			}
		})
		a.Send(make([]byte, 1000))
		return drain(), uint64(n)
	}

	f := NewFabric(7, 2, 2)
	fa, fb := f.Connect(0, 1, "a", "b", 100, 700)
	fEnd, fRounds := run(fa, fb, f.Run)

	s := New(7)
	sa, sb := Connect(s, "a", "b", 100, 700)
	sEnd, sRounds := run(sa, sb, s.Run)

	if fEnd != sEnd || fRounds != sRounds {
		t.Fatalf("fabric (end=%v rounds=%d) diverged from single simulator (end=%v rounds=%d)",
			fEnd, fRounds, sEnd, sRounds)
	}
	if f.PendingMessages() != 0 {
		t.Fatalf("fabric drained with %d undelivered cross-shard messages", f.PendingMessages())
	}

	// FIFO invariant: zero-length frames (zero serialization delay) and
	// same-instant sends tie on their arrival instant, and must still
	// arrive in send order — on a standalone simulator, an intra-shard
	// fabric link and a cross-shard one alike, at the same instants.
	// Each frame is tagged by its spare capacity, which a plain Send
	// carries through untouched. A receiver-side event (tag 0) ties
	// with four of the arrivals and must fall between the two frames
	// sent before it was scheduled and the two sent after.
	type arrival struct {
		tag int
		at  Time
	}
	burst := func(s *Simulator, a, b *Port, run func() Time) []arrival {
		var got []arrival
		b.SetReceiver(func(data []byte) { got = append(got, arrival{cap(data) - len(data), b.sim.Now()}) })
		tag := 0
		send := func(n int) {
			tag++
			a.Send(make([]byte, n, n+tag))
		}
		s.At(0, func() {
			for _, n := range []int{0, 1000, 0, 0, 64, 0} {
				send(n)
			}
		})
		// Mid-serialization: a zero-length frame ties with the frame
		// ahead of it on arrival but was sent later.
		s.At(10, func() { send(0); send(0) })
		s.At(90, func() { send(1500); send(0) })
		rs := b.sim
		rs.At(5, func() { rs.At(785, func() { got = append(got, arrival{0, rs.Now()}) }) })
		run()
		if a.QueueBytes != 0 {
			t.Fatalf("queue gauge %d after drain", a.QueueBytes)
		}
		return got
	}
	f1 := NewFabric(3, 2, 2)
	ia, ib := f1.Connect(0, 0, "a", "b", 100, 700)
	f2 := NewFabric(3, 2, 2)
	xa, xb := f2.Connect(0, 1, "a", "b", 100, 700)
	s1 := New(3)
	pa, pb := Connect(s1, "a", "b", 100, 700)
	orders := [][]arrival{
		burst(s1, pa, pb, s1.Run),
		burst(f1.Node(0), ia, ib, f1.Run),
		burst(f2.Node(0), xa, xb, f2.Run),
	}
	want := []int{1, 2, 3, 4, 5, 6, 0, 7, 8, 9, 10}
	if len(orders[0]) != len(want) {
		t.Fatalf("%d of %d arrivals: %v", len(orders[0]), len(want), orders[0])
	}
	for i, x := range orders[0] {
		if x.tag != want[i] {
			t.Fatalf("arrival %d carries frame %d, want %d: %v", i, x.tag, want[i], orders[0])
		}
	}
	for i, kind := range []string{"intra-shard", "cross-shard"} {
		if o := orders[i+1]; !slices.Equal(o, orders[0]) {
			t.Fatalf("%s link arrivals %v differ from a standalone simulator's %v", kind, o, orders[0])
		}
	}
}

// TestPendingHeapMatchesStableSort checks the pending heap against the
// list it replaced: every window appended the shard outboxes and
// stable-sorted the whole list, then delivered its prefix below the
// horizon. Envelopes are drawn as the fabric produces them — send
// indexes unique per shard outbox and window, ports owned by one shard,
// windows disjoint in time — with heavy ties on arrival and send
// instants.
func TestPendingHeapMatchesStableSort(t *testing.T) {
	less := func(x, y *envelope) bool {
		if x.arrive != y.arrive {
			return x.arrive < y.arrive
		}
		if x.sched != y.sched {
			return x.sched < y.sched
		}
		if x.srcOrd != y.srcOrd {
			return x.srcOrd < y.srcOrd
		}
		return x.idx < y.idx
	}
	const shards, portsPerShard, lookahead = 3, 2, 10
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var h msgHeap
		var list []envelope
		start := Time(0)
		for w := 0; w < 30; w++ {
			for sh := 0; sh < shards; sh++ {
				for i := rng.Intn(6); i > 0; i-- {
					sched := start + Time(rng.Intn(2))
					env := envelope{
						arrive: sched + lookahead + Time(rng.Intn(3)),
						sched:  sched,
						srcOrd: sh*portsPerShard + rng.Intn(portsPerShard),
						idx:    uint64(i),
					}
					h.push(env)
					list = append(list, env)
				}
			}
			sort.SliceStable(list, func(a, b int) bool { return less(&list[a], &list[b]) })
			horizon := start + lookahead + Time(rng.Intn(4))
			if w == 29 {
				horizon = MaxTime
			}
			n := 0
			for n < len(list) && list[n].arrive < horizon {
				n++
			}
			for _, want := range list[:n] {
				if len(h) == 0 || h[0].arrive >= horizon {
					t.Fatalf("trial %d window %d: heap ran dry before %+v", trial, w, want)
				}
				if got := h.pop(); got.arrive != want.arrive || got.sched != want.sched ||
					got.srcOrd != want.srcOrd || got.idx != want.idx {
					t.Fatalf("trial %d window %d: heap popped %+v, stable sort has %+v", trial, w, got, want)
				}
			}
			if len(h) > 0 && h[0].arrive < horizon {
				t.Fatalf("trial %d window %d: heap holds due %+v the sort does not", trial, w, h[0])
			}
			list = append(list[:0], list[n:]...)
			start += lookahead + Time(rng.Intn(3))
		}
		if len(h) != 0 || len(list) != 0 {
			t.Fatalf("trial %d: %d heap / %d list messages left", trial, len(h), len(list))
		}
	}
}

// TestFrameExchangeAllocFree pins the closure-free link layer: once
// FIFOs, outboxes, the pending heap and the transfer-buffer pool have
// grown, exchanging frames over an intra-shard and a cross-shard link —
// plain and recycled sends, replies included — allocates nothing in the
// sim layer.
func TestFrameExchangeAllocFree(t *testing.T) {
	f := NewFabric(1, 2, 1)
	ia, ib := f.Connect(0, 0, "ia", "ib", 100, 50)
	xa, xb := f.Connect(0, 1, "xa", "xb", 100, 100)
	msg, reply := make([]byte, 512), make([]byte, 64)
	recycle := func([]byte) {}
	ignore := func([]byte) {}
	ia.SetReceiver(ignore)
	xa.SetReceiver(ignore)
	ib.SetReceiver(func([]byte) { ib.Send(reply) })
	xb.SetReceiver(func([]byte) { xb.Send(reply) })
	const frames = 16
	exchange := func() {
		for i := 0; i < frames/4; i++ {
			ia.Send(msg)
			ia.SendRecycle(msg, recycle)
			xa.Send(msg)
			xa.SendRecycle(msg, recycle)
		}
		f.Run()
	}
	exchange()
	if n := testing.AllocsPerRun(50, exchange); n != 0 {
		t.Fatalf("%v allocations per exchange of %d frames, want 0", n, frames)
	}
	// Our warm-up, AllocsPerRun's own warm-up, then the 50 measured runs.
	const runs = 52
	if ib.RxFrames != runs*frames/2 || xb.RxFrames != runs*frames/2 || xa.RxFrames != xb.RxFrames {
		t.Fatalf("frames lost: ib=%d xb=%d xa=%d", ib.RxFrames, xb.RxFrames, xa.RxFrames)
	}
}

// BenchmarkEventBatch measures draining a 64-event same-timestamp
// burst — the shape the batch executor optimizes (one heap sift per
// event, callbacks run after the whole run is popped). Allocation-free
// at steady state; the perfgate workload event_batch budgets it.
func BenchmarkEventBatch(b *testing.B) {
	s := New(1)
	fn := func() {}
	const burst = 64
	for i := 0; i < burst; i++ {
		s.After(1, fn)
	}
	s.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < burst; j++ {
			s.After(1, fn)
		}
		s.Run()
	}
}
