package sim

import (
	"fmt"
	"runtime"
	"sync"
)

// Fabric is a sharded discrete-event simulation: one Simulator (event
// heap, freelist, clock) per partition — in Lumina, one per fabric node
// — synchronized by conservative lookahead. Cross-shard links turn
// frame arrivals into timestamped messages that the fabric delivers
// into the receiving shard at the start of the next safe window.
//
// Correctness sketch. Let lookahead L be the minimum propagation delay
// over all cross-shard links (at least 1 ns; Connect enforces it). A
// window starts at t = the global minimum pending instant (heaps and
// undelivered messages) and spans [t, t+L). Every send a shard performs
// inside the window happens at now ≥ t, so its arrival is at
// now + serialization + propagation ≥ t + L — strictly after the
// window. Shards therefore cannot affect each other within a window,
// and running their windows concurrently is equivalent to running them
// in any serial order. Each window fires or delivers at least one
// event, so the loop makes progress.
//
// Determinism. Messages are injected in the canonical order
// (arrival instant, send instant, source-port ordinal, send index) and
// each injected arrival carries the sender's scheduling instant, so a
// shard's heap orders same-instant events by (at, schedAt, seq) — the
// order a single global heap would have produced, up to the residual
// tie of two events scheduled at the same nanosecond on different
// shards for the same instant (broken canonically by port ordinal).
// The result is byte-identical at any shard/goroutine count, including
// MaxProcs 1: parallelism only changes wall-clock time.
//
// The canonical key is a total order: the send index is unique within
// one shard's outbox in one window, a port belongs to one shard, and
// windows are disjoint in time, so two messages from the same port in
// different windows differ in send instant. Undelivered messages
// therefore live in a min-heap on that key (pending): each window
// pushes only its new outbox entries and delivery pops the due prefix,
// which yields exactly the sequence a stable sort of the whole list
// would. Per link direction the key also preserves send order (arrival
// and send instants are non-decreasing along one FIFO link), which is
// what lets the receiving port pop its inbox in arrival-event order.
type Fabric struct {
	nodes []*Simulator
	rng   *RNG

	lookahead Duration
	nextOrd   int

	// out is the per-shard outbox of cross-shard messages produced
	// during the current window; only the owning shard's goroutine
	// appends, and the fabric sweeps it at the barrier.
	out [][]envelope
	// used is the per-shard list of fabric-owned transfer buffers the
	// shard finished receiving during the current window; swept back to
	// pool at the barrier.
	used [][]xbuf
	// pool is the per-source-shard free list of transfer buffers; only
	// the owning shard pops (during its window), only the fabric pushes
	// (at the barrier).
	pool [][][]byte
	// pending holds swept, not-yet-delivered messages, a min-heap on
	// the canonical key.
	pending msgHeap

	// maxPar caps the number of shard goroutines run concurrently
	// inside one window (1 = serial). It has no effect on results.
	maxPar int

	// active is window's per-window list of shards with due events,
	// reused across windows; sem bounds the concurrent ones.
	active []*Simulator
	sem    chan struct{}

	wg sync.WaitGroup
}

// envelope is one cross-shard frame in flight.
type envelope struct {
	arrive Time
	sched  Time // sender's clock at Send — the canonical scheduling stamp
	srcOrd int  // sending port's creation ordinal
	idx    uint64
	src    *Port
	data   []byte
	pooled bool // data is a fabric-owned transfer buffer
}

// xbuf is a spent transfer buffer on its way back to a source shard's
// pool.
type xbuf struct {
	src int
	buf []byte
}

// NewFabric creates a fabric of n single-shard simulators sharing one
// seeded RNG. Components fork from the shared RNG during the (serial)
// build phase in creation order, so a fabric build consumes the RNG
// stream exactly like an unsharded build that creates the same
// components in the same order. maxPar caps concurrent shard execution;
// 0 means one goroutine per available CPU.
func NewFabric(seed int64, n, maxPar int) *Fabric {
	if n < 1 {
		panic("sim: fabric needs at least one shard")
	}
	if maxPar <= 0 {
		maxPar = runtime.NumCPU()
	}
	f := &Fabric{
		rng:       NewRNG(seed),
		lookahead: Duration(MaxTime),
		maxPar:    maxPar,
		out:       make([][]envelope, n),
		used:      make([][]xbuf, n),
		pool:      make([][][]byte, n),
		sem:       make(chan struct{}, maxPar),
	}
	for i := 0; i < n; i++ {
		s := &Simulator{rng: f.rng, fabric: f, shard: i}
		f.nodes = append(f.nodes, s)
	}
	return f
}

// Node returns shard i's simulator.
func (f *Fabric) Node(i int) *Simulator { return f.nodes[i] }

// Nodes returns the number of shards.
func (f *Fabric) Nodes() int { return len(f.nodes) }

// RNG returns the shared build-phase RNG.
func (f *Fabric) RNG() *RNG { return f.rng }

// Lookahead returns the conservative window span (the minimum
// cross-shard propagation delay).
func (f *Fabric) Lookahead() Duration { return f.lookahead }

// Connect creates a link between shards a and b (which may be equal:
// the link is then an ordinary intra-shard link). Cross-shard links
// must have a propagation delay of at least 1 ns — it is the
// conservative lookahead bound.
func (f *Fabric) Connect(a, b int, nameA, nameB string, gbps float64, prop Duration) (*Port, *Port) {
	if gbps <= 0 {
		panic("sim: link rate must be positive")
	}
	l := &Link{GbpsRate: gbps, Propagation: prop}
	pa := newPort(nameA, f.nodes[a], l, f.nextOrd)
	pb := newPort(nameB, f.nodes[b], l, f.nextOrd+1)
	f.nextOrd += 2
	pa.peer, pb.peer = pb, pa
	l.A, l.B = pa, pb
	if a != b {
		if prop < 1 {
			panic(fmt.Sprintf("sim: cross-shard link %s<->%s needs propagation >= 1ns", nameA, nameB))
		}
		if prop < f.lookahead {
			f.lookahead = prop
		}
	}
	return pa, pb
}

// post queues one cross-shard frame; called from Port.send on the
// sending shard's goroutine. Pooled frames (SendRecycle) are copied
// into a fabric-owned transfer buffer and recycled immediately so the
// caller's buffer never leaves its shard.
func (f *Fabric) post(p *Port, data []byte, recycle func([]byte), now, arrive Time) {
	src := p.sim.shard
	pooled := false
	if recycle != nil {
		buf := f.getBuf(src, len(data))
		copy(buf, data)
		recycle(data)
		data = buf
		pooled = true
	}
	ob := f.out[src]
	f.out[src] = append(ob, envelope{
		arrive: arrive, sched: now, srcOrd: p.ord, idx: uint64(len(ob)),
		src: p, data: data, pooled: pooled,
	})
}

func (f *Fabric) getBuf(src, n int) []byte {
	pl := f.pool[src]
	if len(pl) > 0 {
		buf := pl[len(pl)-1]
		f.pool[src] = pl[:len(pl)-1]
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]byte, n)
}

// recycleBuf queues a fabric-owned transfer buffer that port p, on the
// receiving shard, has finished with; sweep returns it to the pool of
// the sending shard (p's peer).
func (f *Fabric) recycleBuf(p *Port, buf []byte) {
	rs := p.sim.shard
	f.used[rs] = append(f.used[rs], xbuf{src: p.peer.sim.shard, buf: buf})
}

// sweep moves every shard outbox into the pending heap and returns
// spent transfer buffers to their source pools. Runs between windows,
// with no shard goroutine active.
func (f *Fabric) sweep() {
	for i := range f.out {
		for _, env := range f.out[i] {
			f.pending.push(env)
		}
		f.out[i] = f.out[i][:0]
		for _, u := range f.used[i] {
			f.pool[u.src] = append(f.pool[u.src], u.buf)
		}
		f.used[i] = f.used[i][:0]
	}
}

// deliver injects every pending message arriving before horizon into
// its receiving shard, in canonical order: the frame joins the
// destination port's inbox and its arrival event carries the sender's
// scheduling instant.
func (f *Fabric) deliver(horizon Time) {
	for len(f.pending) > 0 && f.pending[0].arrive < horizon {
		env := f.pending.pop()
		dst := env.src.peer
		dst.inbox.Push(frame{data: env.data, pooled: env.pooled})
		dst.sim.atSched(env.arrive, env.sched, dst.onArrive)
	}
}

// next returns the earliest pending instant across every shard heap and
// undelivered message.
func (f *Fabric) next() (Time, bool) {
	t, ok := Time(0), false
	for _, s := range f.nodes {
		if at, has := s.NextEventTime(); has && (!ok || at < t) {
			t, ok = at, true
		}
	}
	if len(f.pending) > 0 {
		if at := f.pending[0].arrive; !ok || at < t {
			t, ok = at, true
		}
	}
	return t, ok
}

// window runs one conservative window ending strictly before horizon:
// it delivers due messages, then drains every shard's events with
// at < horizon — concurrently when more than one shard is active and
// maxPar allows — and sweeps the outboxes at the barrier.
func (f *Fabric) window(horizon Time) {
	f.deliver(horizon)
	limit := horizon - 1
	active := f.active[:0]
	for _, s := range f.nodes {
		if at, ok := s.NextEventTime(); ok && at <= limit {
			active = append(active, s)
		}
	}
	f.active = active
	switch {
	case len(active) == 0:
	case len(active) == 1 || f.maxPar == 1:
		for _, s := range active {
			s.drainWindow(limit)
		}
	default:
		for _, s := range active {
			s := s
			f.sem <- struct{}{}
			f.wg.Add(1)
			go func() {
				defer f.wg.Done()
				s.drainWindow(limit)
				<-f.sem
			}()
		}
		f.wg.Wait()
	}
	f.sweep()
}

// drainWindow fires every event at or before limit, leaving the clock
// at the last fired event.
func (s *Simulator) drainWindow(limit Time) {
	for len(s.queue) > 0 && s.queue[0].at <= limit {
		s.stepBatch()
	}
}

// DrainUntil fires events up to and including deadline across every
// shard, window by window; like Simulator.DrainUntil it leaves each
// shard's clock at its last fired event. Call AlignClocks afterwards
// for a single global "end of run" reading.
func (f *Fabric) DrainUntil(deadline Time) {
	if deadline > MaxTime-1 {
		deadline = MaxTime - 1
	}
	for {
		t, ok := f.next()
		if !ok || t > deadline {
			return
		}
		horizon := t.Add(f.lookahead)
		if horizon < t || horizon > deadline+1 { // overflow-safe clamp
			horizon = deadline + 1
		}
		f.window(horizon)
	}
}

// Run drains every shard until no events or messages remain, then
// returns the final (maximum) virtual time.
func (f *Fabric) Run() Time {
	f.DrainUntil(MaxTime - 1)
	return f.Now()
}

// Now returns the maximum shard clock — the fabric-wide notion of "how
// far the run has progressed".
func (f *Fabric) Now() Time {
	var t Time
	for _, s := range f.nodes {
		if s.now > t {
			t = s.now
		}
	}
	return t
}

// AlignClocks advances every shard's clock to the fabric-wide maximum
// (clocks only ever move forward). Orchestrators call it after the run
// so per-shard snapshots (traffic end times, durations) read the same
// instant an unsharded run would report.
func (f *Fabric) AlignClocks() {
	t := f.Now()
	for _, s := range f.nodes {
		if s.now < t {
			s.now = t
		}
	}
}

// Executed sums fired events across shards.
func (f *Fabric) Executed() uint64 {
	var n uint64
	for _, s := range f.nodes {
		n += s.executed
	}
	return n
}

// PendingMessages reports undelivered cross-shard messages (after the
// last window this is always zero; exposed for tests).
func (f *Fabric) PendingMessages() int { return len(f.pending) }

// msgHeap is a binary min-heap of undelivered messages on the canonical
// key (arrive, sched, srcOrd, idx) — a total order, so the pop sequence
// is fully determined (see Fabric). Sifts move the hole instead of
// swapping, one envelope copy per level.
type msgHeap []envelope

// before reports whether x precedes y in canonical order.
func (x *envelope) before(y *envelope) bool {
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

func (h *msgHeap) push(env envelope) {
	*h = append(*h, env)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !env.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = env
}

// pop removes and returns the minimum message.
func (h *msgHeap) pop() envelope {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = envelope{}
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q[c+1].before(&q[c]) {
			c++
		}
		if !q[c].before(&last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = last
	return top
}
