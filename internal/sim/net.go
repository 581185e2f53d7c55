package sim

import "fmt"

// Port is one end of a full-duplex Link. A component sends raw frames
// (serialized packet bytes) out of its ports; the link models store-and-
// forward serialization delay, FIFO output queueing, and propagation
// delay, then hands the frame to the peer port's receive handler.
//
// The per-frame path schedules no closures. One link direction is FIFO:
// a port's dequeue instants (serialization done) are non-decreasing in
// send order, and so are the peer's arrival instants (done plus a fixed
// propagation), with same-instant ties falling back to (schedAt, seq) —
// also send order, on both intra- and cross-shard links (see Fabric).
// So each port keeps two FIFOs — the sizes of its queued frames (txq)
// and the frames in flight toward it (inbox) — and every dequeue or
// arrival event runs a handler bound once at port creation that pops
// the head. Each event still fires at the (at, schedAt, seq) a
// per-frame closure would have had.
type Port struct {
	Name string

	sim  *Simulator
	link *Link
	peer *Port
	recv func(data []byte)
	// ord is the port's creation ordinal within its fabric (zero for
	// ports of a standalone simulator); it canonicalizes the delivery
	// order of cross-shard messages arriving at the same instant.
	ord int

	// txFreeAt is the instant the transmitter finishes serializing the
	// last queued frame; it implements an infinite FIFO output queue.
	txFreeAt Time

	// Gauges and counters, exported for integrity checks (§3.5).
	TxFrames   uint64
	TxBytes    uint64
	RxFrames   uint64
	RxBytes    uint64
	QueueBytes int64 // bytes currently waiting for or in serialization
	MaxQueue   int64
	// Busy is the cumulative serialization time committed to this port's
	// transmitter — the link-utilization numerator (Busy / elapsed). It
	// is credited at enqueue time, so over a window it can briefly exceed
	// the elapsed time (queued frames whose airtime lies in the future).
	Busy Duration

	// stamp, when set, observes every frame at enqueue time — before the
	// frame's own bytes are added to the queue gauges — and may rewrite
	// bytes in place (the INT stamping hook). It must not schedule events
	// or retain the slice.
	stamp func(data []byte, at Time, queuedAhead int64, busy Duration)

	// txq holds the sizes of frames queued at this transmitter, popped
	// by onDequeue when each finishes serializing; inbox holds the frames
	// in flight toward this port, popped by onArrive.
	txq   FIFO[int64]
	inbox FIFO[frame]
	// onDequeue and onArrive are the bound methods dequeue and arrive,
	// built once so scheduling them allocates nothing.
	onDequeue, onArrive func()
}

// frame is one frame in flight toward a port.
type frame struct {
	data    []byte
	recycle func([]byte) // intra-shard SendRecycle: run after receive
	pooled  bool         // data is a fabric-owned transfer buffer
}

// newPort creates a port and binds its event handlers.
func newPort(name string, s *Simulator, l *Link, ord int) *Port {
	p := &Port{Name: name, sim: s, link: l, ord: ord}
	p.onDequeue, p.onArrive = p.dequeue, p.arrive
	return p
}

// SetStamper installs the per-frame egress hook invoked synchronously
// inside Send, with the queue depth ahead of the frame and the port's
// cumulative busy time at that instant. A nil fn removes the hook.
// Stamping is observe-and-rewrite only: the simulated schedule is
// identical with or without it.
func (p *Port) SetStamper(fn func(data []byte, at Time, queuedAhead int64, busy Duration)) {
	p.stamp = fn
}

// SetReceiver installs the function invoked for every frame arriving at
// this port. It must be set before any peer transmits.
func (p *Port) SetReceiver(fn func(data []byte)) { p.recv = fn }

// Connected reports whether the port is attached to a link.
func (p *Port) Connected() bool { return p.link != nil }

// Peer returns the port on the other end of the link, or nil.
func (p *Port) Peer() *Port { return p.peer }

// Send queues a frame for transmission. The frame is delivered to the
// peer after serialization (len/bandwidth, FIFO behind earlier frames)
// plus propagation delay. Send never blocks; queueing is unbounded, as in
// the paper's testbed the switch MMU is the only loss point and losses
// there are modelled explicitly by the injector.
func (p *Port) Send(data []byte) { p.send(data, nil) }

// SendRecycle is Send for callers that pool their frame buffers: after
// the peer's receive handler returns, recycle(data) is invoked so the
// buffer can be reused. The receiver must therefore not retain the slice
// beyond its handler (it may copy what it needs) — which is exactly the
// contract the dumper path honors by trimming into its own storage.
//
// Shard-safety contract: recycle always runs on the sending port's own
// shard, and the recycled buffer never crosses shard ownership. On an
// intra-shard link recycle runs after the peer's handler, as above; on a
// cross-shard link the frame is copied into a fabric-owned transfer
// buffer at enqueue time and recycle(data) is invoked immediately, still
// inside the sender's Send call. Callers may thus keep a plain,
// unsynchronized free list keyed to the component that owns the port.
func (p *Port) SendRecycle(data []byte, recycle func([]byte)) { p.send(data, recycle) }

func (p *Port) send(data []byte, recycle func([]byte)) {
	if p.link == nil {
		panic(fmt.Sprintf("sim: send on disconnected port %q", p.Name))
	}
	s := p.sim
	now := s.Now()
	if p.stamp != nil {
		p.stamp(data, now, p.QueueBytes, p.Busy)
	}
	start := now
	if p.txFreeAt > start {
		start = p.txFreeAt
	}
	ser := p.link.SerializationDelay(len(data))
	done := start.Add(ser)
	p.txFreeAt = done
	p.Busy += ser

	p.TxFrames++
	p.TxBytes += uint64(len(data))
	p.QueueBytes += int64(len(data))
	if p.QueueBytes > p.MaxQueue {
		p.MaxQueue = p.QueueBytes
	}

	peer := p.peer
	arrive := done.Add(p.link.Propagation)
	p.txq.Push(int64(len(data)))
	s.At(done, p.onDequeue)
	if peer.sim != s {
		// Cross-shard link: the arrival becomes a timestamped message
		// the fabric delivers into the peer's shard at the next safe
		// horizon. When the caller pools its buffer (SendRecycle), the
		// frame is copied into a fabric-owned buffer and recycle(data)
		// runs right here, on the sending shard — a pooled buffer never
		// crosses shard ownership (see Fabric and TestSendRecycleShardSafety).
		s.fabric.post(p, data, recycle, now, arrive)
		return
	}
	peer.inbox.Push(frame{data: data, recycle: recycle})
	s.At(arrive, peer.onArrive)
}

// dequeue retires the head of the transmit queue once its serialization
// finishes.
func (p *Port) dequeue() { p.QueueBytes -= p.txq.Pop() }

// arrive hands the head of the inbox to the receive handler, then
// returns its buffer: to the sender's recycle function on an
// intra-shard link, or to the fabric's transfer-buffer pool when it
// crossed shards.
func (p *Port) arrive() {
	fr := p.inbox.Pop()
	p.RxFrames++
	p.RxBytes += uint64(len(fr.data))
	if p.recv == nil {
		panic(fmt.Sprintf("sim: frame arrived at port %q with no receiver", p.Name))
	}
	p.recv(fr.data)
	if fr.recycle != nil {
		fr.recycle(fr.data)
	}
	if fr.pooled {
		p.sim.fabric.recycleBuf(p, fr.data)
	}
}

// TxBacklog returns how long the transmitter is already committed beyond
// the current instant — i.e. the queueing delay a frame sent now would
// experience before its own serialization starts.
func (p *Port) TxBacklog() Duration {
	if p.txFreeAt <= p.sim.Now() {
		return 0
	}
	return p.txFreeAt.Sub(p.sim.Now())
}

// Link is a full-duplex point-to-point link between two ports.
type Link struct {
	// GbpsRate is the line rate in gigabits per second (e.g. 100 for the
	// CX5/CX6/E810 testbeds, 40 for CX4 Lx).
	GbpsRate float64
	// Propagation is the one-way signal propagation delay.
	Propagation Duration

	A, B *Port
}

// Connect creates a link between two fresh ports with the given line rate
// and propagation delay, returning both ports. The caller installs
// receivers and keeps the *Port handles.
func Connect(s *Simulator, nameA, nameB string, gbps float64, prop Duration) (*Port, *Port) {
	if gbps <= 0 {
		panic("sim: link rate must be positive")
	}
	l := &Link{GbpsRate: gbps, Propagation: prop}
	a := newPort(nameA, s, l, 0)
	b := newPort(nameB, s, l, 0)
	a.peer, b.peer = b, a
	l.A, l.B = a, b
	return a, b
}

// SerializationDelay returns the time to clock n bytes onto the wire.
func (l *Link) SerializationDelay(n int) Duration {
	bits := float64(n) * 8
	ns := bits / l.GbpsRate // Gbps == bits per nanosecond
	d := Duration(ns)
	if d < 1 && n > 0 {
		d = 1
	}
	return d
}

// TransferTime returns the serialization delay for n bytes at gbps line
// rate — a convenience used by rate-based schedulers that pace packets
// below the physical line rate.
func TransferTime(n int, gbps float64) Duration {
	if gbps <= 0 {
		panic("sim: non-positive rate")
	}
	return Duration(float64(n) * 8 / gbps)
}
