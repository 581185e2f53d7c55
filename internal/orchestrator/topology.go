// Testbed topologies and their execution on sim.Fabric. Every testbed
// is a fabric of event-loop nodes; two topologies exist:
//
//   - pair (no config fabric): the paper's testbed (§3.1, Figure 1) —
//     requester and responder hosts on the injector switch, plus the
//     dumper pool — the smallest fabric, all on one node. A node with no
//     cross-node links has lookahead MaxTime, so each DrainUntil/Run is
//     one window that drains the node's heap like a plain Simulator;
//
//   - leaf-spine (config.Test.Fabric): one node per host, per leaf, and
//     one for the spine+dumpers. The partitioning is the same at every
//     Options.Shards value — Shards only caps how many node loops run
//     concurrently inside one window — so artifacts are byte-identical
//     at shards=1 vs shards=N by construction.
//
// Determinism of the merged artifacts:
//
//   - probe events: every node hub sinks into one control hub during the
//     serial phases (build, traffic start, teardown), preserving exact
//     call order. A one-node run keeps the sink through the run phase
//     too — its events fire in canonical order already. On several nodes
//     each hub records locally while node loops run, and the streams
//     merge once by (instant, scheduling instant) — the order a single
//     global heap fires in (see telemetry.MergeEvents);
//   - metrics: per-node registries fold order-independently
//     (Registry.MergeInto: counters add, gauges are single-writer,
//     histograms merge bucket-wise);
//   - INT stamps: per-node collector views share one hop table with
//     per-origin transit namespacing; the canonical log interleaves by
//     stamp instant (see package inband);
//   - coverage: per-node maps fold with coverage.MergeReports
//     (count-summing, order-independent).
package orchestrator

import (
	"fmt"
	"net/netip"
	"sort"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/coverage"
	"github.com/lumina-sim/lumina/internal/dumper"
	"github.com/lumina-sim/lumina/internal/inband"
	"github.com/lumina-sim/lumina/internal/injector"
	"github.com/lumina-sim/lumina/internal/packet"
	"github.com/lumina-sim/lumina/internal/rnic"
	"github.com/lumina-sim/lumina/internal/sim"
	"github.com/lumina-sim/lumina/internal/telemetry"
	"github.com/lumina-sim/lumina/internal/traffic"
)

// hostLinkProp is the propagation delay of every link (100 ns); it
// doubles as the conservative lookahead bound on cross-node links.
const hostLinkProp = 100

// newShardFabric creates the n-node fabric with its telemetry and
// coverage plumbing: one hub and one coverage map per node, every hub
// sinking into the control hub until the run phase starts.
func newShardFabric(seed int64, n, maxPar int, opts Options) (*sim.Fabric, *telemetry.Hub, []*telemetry.Hub, []*coverage.Map) {
	if maxPar < 1 {
		maxPar = 1
	}
	f := sim.NewFabric(seed, n, maxPar)
	var ctl *telemetry.Hub
	var hubs []*telemetry.Hub
	if opts.Telemetry {
		ctl = telemetry.NewHub()
		ctl.SetClock(func() int64 { return int64(f.Now()) })
		for i := 0; i < n; i++ {
			h := telemetry.NewHub()
			f.Node(i).AttachHub(h)
			h.SetSink(ctl)
			hubs = append(hubs, h)
		}
		ctl.Emit(telemetry.KindRunPhase, "orchestrator", "setup")
	}
	var covs []*coverage.Map
	if opts.Coverage {
		for i := 0; i < n; i++ {
			m := coverage.NewMap()
			f.Node(i).AttachCoverage(m)
			covs = append(covs, m)
		}
	}
	return f, ctl, hubs, covs
}

func buildNIC(s *sim.Simulator, h config.Host, name string, mac packet.MAC) (*rnic.NIC, error) {
	prof, err := rnic.ProfileByName(h.NIC.Type)
	if err != nil {
		return nil, err
	}
	set := rnic.Settings{
		DCQCNRPEnable:      h.RoCE.DCQCNRPEnable,
		DCQCNNPEnable:      h.RoCE.DCQCNNPEnable,
		MinTimeBetweenCNPs: h.RoCE.MinCNPInterval(),
		AdaptiveRetrans:    h.RoCE.AdaptiveRetrans,
		SlowRestart:        h.RoCE.SlowRestart,
	}
	var ets rnic.ETSConfig
	for _, q := range h.ETS {
		ets.Queues = append(ets.Queues, rnic.ETSQueueConfig{Strict: q.Strict, Weight: q.Weight})
	}
	ips := append([]netip.Addr(nil), h.NIC.IPList...)
	return rnic.New(s, prof, rnic.Config{
		Name: name, MAC: mac, IPs: ips, ETS: ets, Set: set,
	}), nil
}

// newInjector creates the switch carrying the full Lumina pipeline
// (mirroring, injection, ITER tracking) on node s.
func newInjector(s *sim.Simulator, cfg config.Test) *injector.Switch {
	sw := injector.New(s, cfg.Switch)
	sw.NoRSSRewrite = !cfg.Dumpers.RSSPortRewrite
	sw.ByIngressMirror = !cfg.Dumpers.PerPacketLB
	return sw
}

// buildDumpers attaches the dumper pool to the injector switch's node.
// In the two-host (no per-packet LB) design only two dumper nodes are
// used, one per traffic direction.
func buildDumpers(s *sim.Simulator, cfg config.Test, sw *injector.Switch) (*dumper.Pool, []*sim.Port) {
	nNodes := cfg.Dumpers.Nodes
	if !cfg.Dumpers.PerPacketLB && nNodes > 2 {
		nNodes = 2
	}
	dcfg := dumper.Config{
		Cores:       cfg.Dumpers.CoresPerNode,
		PerCoreGbps: cfg.Dumpers.PerCoreGbps,
		TrimBytes:   cfg.Dumpers.TrimBytes,
	}
	pool := dumper.NewPool(s, nNodes, dcfg)
	ports := make([]*sim.Port, 0, 2*nNodes)
	for i, node := range pool.Nodes {
		nodePort, swPort := sim.Connect(s, fmt.Sprintf("dumper-%d", i), fmt.Sprintf("sw-dump-%d", i), cfg.Dumpers.NodeGbps, hostLinkProp)
		node.AttachPort(nodePort)
		w := 1
		if i < len(cfg.Dumpers.Weights) {
			w = cfg.Dumpers.Weights[i]
		}
		sw.AttachDumper(swPort, w)
		ports = append(ports, nodePort, swPort)
	}
	return pool, ports
}

// program is the control-plane phase (§3.3) for one traffic pair: the
// requester shares its runtime connection metadata with the injector,
// which combines it with the configured intents to populate the
// match-action table — before traffic starts.
func program(sw *injector.Switch, p *traffic.Pair, cfg config.Test) error {
	metas := p.ConnMetas()
	for _, m := range metas {
		sw.AddConnection(m)
	}
	if !cfg.Switch.Inject {
		return nil
	}
	rules, err := injector.TranslateIntents(cfg.Traffic.Events, cfg.Traffic.Verb, metas, cfg.Traffic.PacketsPerQP())
	if err != nil {
		return err
	}
	for _, r := range rules {
		sw.InstallRule(r)
	}
	return nil
}

// pair assembles the two-host testbed on a one-node fabric.
func pair(cfg config.Test, opts Options) (*Testbed, error) {
	f, ctl, hubs, covs := newShardFabric(cfg.Seed, 1, opts.Shards, opts)
	s := f.Node(0)

	req, err := buildNIC(s, cfg.Requester, "requester", packet.MAC{2, 0, 0, 0, 0, 1})
	if err != nil {
		return nil, err
	}
	resp, err := buildNIC(s, cfg.Responder, "responder", packet.MAC{2, 0, 0, 0, 0, 2})
	if err != nil {
		return nil, err
	}
	sw := newInjector(s, cfg)

	// Host links run at each NIC's line rate.
	reqPort, swReq := f.Connect(0, 0, "req-nic", "sw-req", req.Prof.LinkGbps, hostLinkProp)
	respPort, swResp := f.Connect(0, 0, "resp-nic", "sw-resp", resp.Prof.LinkGbps, hostLinkProp)
	req.AttachPort(reqPort)
	resp.AttachPort(respPort)
	sw.AttachHost(swReq, req.MAC)
	sw.AttachHost(swResp, resp.MAC)
	ports := []*sim.Port{reqPort, swReq, respPort, swResp}

	// INT stamping hops, in fixed registration order: NIC egress ports
	// originate transits, switch egress ports append their view, and the
	// injector's pipeline (registered by EnableINT) binds transit IDs to
	// mirror sequence numbers. Dumper-facing ports are never stamped —
	// mirror copies must reach the trace with their bytes untouched.
	var col *inband.Collector
	if opts.INT {
		col = inband.NewCollector(ctl)
		v := col.Views(1)[0]
		v.AttachPort(reqPort, true)
		v.AttachPort(respPort, true)
		v.AttachPort(swReq, false)
		v.AttachPort(swResp, false)
		sw.EnableINT(v)
	}

	pool, dumpPorts := buildDumpers(s, cfg, sw)
	ports = append(ports, dumpPorts...)

	p, err := traffic.NewPair(s, req, resp, cfg.Traffic)
	if err != nil {
		return nil, err
	}
	if err := program(sw, p, cfg); err != nil {
		return nil, err
	}

	return &Testbed{
		Cfg: cfg, Opts: opts,
		Sim: s, Fabric: f, Switch: sw, Pool: pool,
		Pairs: []*traffic.Pair{p}, Requesters: []*rnic.NIC{req}, Responder: resp,
		Ports: ports, INT: col,
		ctl: ctl, hubs: hubs, covs: covs,
	}, nil
}

// hostMAC/hostIP generate fabric host addressing (outside the pair
// testbed's 2,0,0,0,0,x space).
func hostMAC(i int) packet.MAC {
	return packet.MAC{2, 0, 0, 1, byte(i >> 8), byte(i)}
}

func hostIP(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, 1, byte(i / 250), byte(i%250 + 1)})
}

// leafSpine assembles a leaf-spine fabric: one node per host, per leaf,
// and one for the spine (which carries the injector pipeline and the
// dumper pool). Host 0 is the traffic sink (the Responder host
// template); every other host is a requester (Requester template) with
// its own traffic pair toward host 0.
func leafSpine(cfg config.Test, opts Options) (*Testbed, error) {
	ft := cfg.Fabric
	hosts := ft.Hosts()
	spineNode := hosts + ft.Leaves
	f, ctl, hubs, covs := newShardFabric(cfg.Seed, spineNode+1, opts.Shards, opts)

	// Hosts first, in index order (the RNG fork order).
	nics := make([]*rnic.NIC, hosts)
	for i := range nics {
		tmpl := cfg.Requester
		if i == 0 {
			tmpl = cfg.Responder
		}
		h := tmpl
		h.NIC.IPList = []netip.Addr{hostIP(i)}
		nic, err := buildNIC(f.Node(i), h, fmt.Sprintf("host-%d", i), hostMAC(i))
		if err != nil {
			return nil, err
		}
		nics[i] = nic
	}

	// Leaves are plain L2 forwarders; the spine carries the full Lumina
	// pipeline.
	leafCfg := config.Switch{PipelineLatencyNs: cfg.Switch.PipelineLatencyNs, L2Only: true}
	leaves := make([]*injector.Switch, ft.Leaves)
	for l := range leaves {
		leaves[l] = injector.New(f.Node(hosts+l), leafCfg)
	}
	spine := newInjector(f.Node(spineNode), cfg)

	// Host downlinks, then leaf↔spine trunks. The spine's MAC table
	// routes each host's address out of the trunk toward its leaf; a
	// leaf default-routes unknown unicast up to the spine.
	var ports []*sim.Port
	hostPorts := make([]*sim.Port, hosts)
	for i := range nics {
		l := i / ft.HostsPerLeaf
		hp, lp := f.Connect(i, hosts+l,
			fmt.Sprintf("host-%d", i), fmt.Sprintf("leaf-%d-p%d", l, i%ft.HostsPerLeaf),
			nics[i].Prof.LinkGbps, hostLinkProp)
		nics[i].AttachPort(hp)
		leaves[l].AttachHost(lp, nics[i].MAC)
		hostPorts[i] = hp
		ports = append(ports, hp, lp)
	}
	uplinks := make([]*sim.Port, 0, ft.Leaves*2)
	for l := range leaves {
		up, down := f.Connect(hosts+l, spineNode,
			fmt.Sprintf("leaf-%d-up", l), fmt.Sprintf("spine-p%d", l),
			ft.UplinkGbps, hostLinkProp)
		idx := leaves[l].AttachTrunk(up, nil)
		leaves[l].SetDefaultPort(idx)
		var macs []packet.MAC
		for i := l * ft.HostsPerLeaf; i < (l+1)*ft.HostsPerLeaf; i++ {
			macs = append(macs, nics[i].MAC)
		}
		spine.AttachTrunk(down, macs)
		uplinks = append(uplinks, up, down)
		ports = append(ports, up, down)
	}

	// INT: host egress ports originate transits (hop IDs 0..hosts-1,
	// within the tag's origin space for fabrics up to 63 hosts); leaf
	// uplinks and spine downlinks are transit hops; the spine pipeline
	// binds transits to mirror sequence numbers.
	var col *inband.Collector
	if opts.INT {
		col = inband.NewCollector(ctl)
		views := col.Views(spineNode + 1)
		for i, hp := range hostPorts {
			views[i].AttachPort(hp, true)
		}
		for k := 0; k < len(uplinks); k += 2 {
			l := k / 2
			views[hosts+l].AttachPort(uplinks[k], false)
			views[spineNode].AttachPort(uplinks[k+1], false)
		}
		spine.EnableINT(views[spineNode])
	}

	pool, dumpPorts := buildDumpers(f.Node(spineNode), cfg, spine)
	ports = append(ports, dumpPorts...)

	// One traffic pair per requester, all converging on host 0. Pair
	// state lives on the requester's node (every runtime callback is
	// requester-side); QP setup below is serial build-phase work.
	var pairs []*traffic.Pair
	for i := 1; i < hosts; i++ {
		p, err := traffic.NewPairLabeled(f.Node(i), nics[i], nics[0], cfg.Traffic, fmt.Sprintf("h%d", i))
		if err != nil {
			return nil, err
		}
		if err := program(spine, p, cfg); err != nil {
			return nil, err
		}
		pairs = append(pairs, p)
	}

	return &Testbed{
		Cfg: cfg, Opts: opts,
		Sim: f.Node(0), Fabric: f, Switch: spine, Pool: pool,
		Pairs: pairs, Requesters: nics[1:], Responder: nics[0], Leaves: leaves,
		Ports: ports, INT: col,
		ctl: ctl, hubs: hubs, covs: covs,
	}, nil
}

// trafficFinished reports whether every traffic generator completed.
func (tb *Testbed) trafficFinished() bool {
	for _, p := range tb.Pairs {
		if !p.Finished() {
			return false
		}
	}
	return true
}

// trafficResults concatenates the per-pair traffic snapshots in pair
// order, reindexing connections; a single pair's snapshot is the result.
func (tb *Testbed) trafficResults() *traffic.Results {
	if len(tb.Pairs) == 1 {
		return tb.Pairs[0].Snapshot()
	}
	out := &traffic.Results{}
	for _, p := range tb.Pairs {
		r := p.Snapshot()
		for _, c := range r.Conns {
			c.Index = len(out.Conns)
			out.Conns = append(out.Conns, c)
		}
		if out.Start == 0 || (r.Start != 0 && r.Start < out.Start) {
			out.Start = r.Start
		}
		if r.End > out.End {
			out.End = r.End
		}
	}
	return out
}

// sumCounters folds NIC counter snapshots (order-independent) into the
// first one.
func sumCounters(nics []*rnic.NIC) map[string]uint64 {
	out := nics[0].Counters.Snapshot()
	for _, n := range nics[1:] {
		for k, v := range n.Counters.Snapshot() {
			out[k] += v
		}
	}
	return out
}

// mergeRunEvents splices the node hubs' run-phase streams, merged once,
// into the control hub: events at or before the deadline go after the
// serial prefix (build + traffic start, ending at index prefix), later
// ones — fired by the trailing drain — after the drain marker (ending
// at index drain). The control hub then holds the stream a single
// global heap would have recorded.
func (tb *Testbed) mergeRunEvents(prefix, drain int, deadline sim.Time) {
	streams := make([][]telemetry.Event, len(tb.hubs))
	for i, h := range tb.hubs {
		streams[i] = h.Events()
	}
	merged := telemetry.MergeEvents(streams...)
	split := sort.Search(len(merged), func(i int) bool {
		return merged[i].At > int64(deadline)
	})
	tb.ctl.Insert(drain, merged[split:])
	tb.ctl.Insert(prefix, merged[:split])
}
