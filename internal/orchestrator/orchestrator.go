// Package orchestrator drives a complete Lumina test (§3.1, Figure 1):
// it builds the simulated testbed from a configuration — two hosts with
// the NIC models under test connected to the event-injector switch, plus
// the traffic-dumper pool — performs the setup phases in the paper's
// order (configure hosts, create QPs, exchange metadata, populate the
// injector's match-action table, start traffic), and after traffic
// finishes collects every Table-1 artifact: the reconstructed packet
// trace with its integrity check, NIC counters, traffic-generator logs,
// and switch counters.
package orchestrator

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"github.com/lumina-sim/lumina/internal/analyzer"
	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/coverage"
	"github.com/lumina-sim/lumina/internal/dumper"
	"github.com/lumina-sim/lumina/internal/inband"
	"github.com/lumina-sim/lumina/internal/injector"
	"github.com/lumina-sim/lumina/internal/lineage"
	"github.com/lumina-sim/lumina/internal/rnic"
	"github.com/lumina-sim/lumina/internal/sim"
	"github.com/lumina-sim/lumina/internal/telemetry"
	"github.com/lumina-sim/lumina/internal/trace"
	"github.com/lumina-sim/lumina/internal/traffic"
)

// Options tune a run beyond the test configuration.
type Options struct {
	// Deadline bounds virtual time; a run that has not finished by then
	// is reported as timed out instead of spinning forever.
	Deadline sim.Duration

	// Telemetry attaches a probe hub to the simulation: the run records
	// typed events and metrics into Report.Events / Report.Metrics.
	// Telemetry is observe-only and does not perturb the simulated
	// history — a run produces the same trace with or without it.
	Telemetry bool

	// Lineage reconstructs causal packet-lifecycle chains after the run
	// (Report.Lineage) and renders analyzer verdicts that cite them
	// (Report.Verdicts). Reconstruction is purely offline — it reads the
	// finished trace and probe stream — so, like Telemetry, it cannot
	// change the simulated history. With Telemetry also on, chains gain
	// the endpoint-internal nodes (rewind, rto-fire, rate-cut,
	// completion) only probes can witness.
	Lineage bool

	// INT enables in-band telemetry: NIC egress ports, switch egress
	// ports and the injector's match-action pipeline stamp every
	// forwarded RoCE packet with hop ID, timestamp, queue depth and
	// link utilization in iCRC-invariant header fields; the collected
	// stamps are joined with lineage chains into Report.INT (serialized
	// to int.json by WriteArtifacts). INT is observe-only like Telemetry
	// and Lineage: trace, verdicts, and summary.json are byte-identical
	// with it on or off. Per-hop breakdowns require Lineage (the join
	// keys on its chains); stamp collection alone does not.
	INT bool

	// Coverage attaches the behavioral coverage map: transport-FSM,
	// DCQCN, ETS-arbiter and injector match-action branches record which
	// (site, transition) pairs the run exercised, collected into
	// Report.Coverage (serialized to coverage.json by WriteArtifacts).
	// Coverage is observe-only like Telemetry: recording increments a
	// preallocated counter and never schedules events or reads RNG, so
	// trace, verdicts, and summary.json are byte-identical with it on or
	// off, and coverage.json itself is byte-identical at any engine
	// worker count and with INT on or off.
	Coverage bool

	// Transport, when non-empty, overrides the scenario's transport for
	// every connection ("rc", "uc", or "ud") — the -transport CLI knob
	// and the transport-matrix CI axis. It clears any per-connection
	// qp-transport mix, is validated against the scenario's verb and
	// message-size constraints by config.Validate, and participates in
	// Fingerprint: the override changes the simulated history, so cached
	// results are keyed by it.
	Transport string

	// Shards caps how many node loops of a fabric topology
	// (config.Test.Fabric) execute concurrently inside one conservative
	// window; 0 or 1 runs them serially. Every node — host NIC, leaf,
	// spine+dumpers — keeps its own event heap whatever the value, so
	// every artifact is byte-identical at any Shards value. The pair
	// testbed is a single node, so Shards has no effect on it.
	Shards int
}

// DefaultOptions allows generous virtual time for timeout-heavy tests.
func DefaultOptions() Options {
	return Options{Deadline: 600 * sim.Second}
}

// Fingerprint renders the options that can change a run's artifacts
// into a canonical string — the "options" dimension of a result-cache
// key. Two runs of the same scenario with the same fingerprint (and the
// same code version) produce byte-identical artifacts.
//
// Shards is deliberately excluded: sharding is artifact-preserving by
// contract (every artifact is byte-identical at any Shards value, and
// CI diffs the trees to prove it), so a result computed sharded may
// serve a cache lookup for an unsharded replay and vice versa.
func (o Options) Fingerprint() string {
	d := o.Deadline
	if d <= 0 {
		d = DefaultOptions().Deadline
	}
	flag := func(b bool) byte {
		if b {
			return '1'
		}
		return '0'
	}
	return fmt.Sprintf("deadline=%d;telemetry=%c;lineage=%c;int=%c;coverage=%c;transport=%s",
		int64(d), flag(o.Telemetry), flag(o.Lineage), flag(o.INT), flag(o.Coverage), o.Transport)
}

// DumperStat summarizes one dumper node.
type DumperStat struct {
	Node     int    `json:"node"`
	Rx       uint64 `json:"rx_packets"`
	Discards uint64 `json:"rx_discards"`
	Captured uint64 `json:"captured"`
}

// Report bundles everything the orchestrator collects (Table 1).
type Report struct {
	Config  config.Test      `json:"config"`
	Traffic *traffic.Results `json:"traffic"`

	RequesterCounters map[string]uint64 `json:"requester_counters"`
	ResponderCounters map[string]uint64 `json:"responder_counters"`

	SwitchTotals  injector.PortCounters   `json:"switch_totals"`
	SwitchPerPort []injector.PortCounters `json:"switch_per_port"`
	DumperStats   []DumperStat            `json:"dumper_stats"`

	IntegrityOK     bool   `json:"integrity_ok"`
	IntegrityDetail string `json:"integrity_detail,omitempty"`

	TimedOut   bool     `json:"timed_out"`
	DurationNs sim.Time `json:"duration_ns"`

	// Metrics is the telemetry registry snapshot; nil unless
	// Options.Telemetry was set. Serialized to metrics.json by
	// WriteArtifacts (omitted from report.json to keep it stable).
	Metrics *telemetry.MetricsSnapshot `json:"-"`
	// Events is the recorded probe stream in emission order; nil unless
	// Options.Telemetry was set. Rendered by telemetry.WriteTimeline.
	Events []telemetry.Event `json:"-"`

	// Trace is the reconstructed packet trace (not serialized to JSON;
	// use WriteArtifacts for a pcap).
	Trace *trace.Trace `json:"-"`

	// Lineage is the causal packet-lifecycle DAG; nil unless
	// Options.Lineage was set. Serialized (via Summary) to summary.json
	// by WriteArtifacts.
	Lineage *lineage.Graph `json:"-"`
	// Verdicts are the analyzer pass/fail judgements citing lineage
	// chains; nil unless Options.Lineage was set.
	Verdicts []analyzer.Verdict `json:"-"`

	// INT is the in-band telemetry report (per-hop stamps joined to
	// lineage chains); nil unless Options.INT was set. Serialized to
	// int.json by WriteArtifacts, and deliberately kept out of
	// report.json and summary.json so INT-enabled runs replay against
	// INT-agnostic corpus goldens.
	INT *INTReport `json:"-"`

	// Coverage is the behavioral coverage snapshot ((site, transition)
	// pair counts); nil unless Options.Coverage was set. Serialized to
	// coverage.json by WriteArtifacts and kept out of report.json and
	// summary.json so coverage-enabled runs replay against
	// coverage-agnostic corpus goldens.
	Coverage *coverage.Report `json:"-"`
}

// Testbed is the assembled simulation, exposed so tests and experiment
// harnesses can inspect components mid-run.
type Testbed struct {
	Cfg  config.Test
	Opts Options

	// Fabric is the event-loop engine every testbed runs on (topology.go);
	// Sim is its node 0 — the pair testbed's only node, a leaf-spine
	// fabric's host 0.
	Fabric *sim.Fabric
	Sim    *sim.Simulator

	// Switch is the injector-capable switch (a leaf-spine fabric's
	// spine); Leaves are the L2-only leaf switches, nil on the pair.
	Switch *injector.Switch
	Leaves []*injector.Switch
	Pool   *dumper.Pool

	// Pairs are the traffic generators, one per requester NIC in
	// Requesters, each driving connections toward the Responder NIC:
	// one pair on the pair testbed, one per sender host on a leaf-spine
	// incast (whose Responder is host 0, the sink).
	Pairs      []*traffic.Pair
	Requesters []*rnic.NIC
	Responder  *rnic.NIC

	// Ports holds every fabric port in creation order (host NIC, switch
	// host-facing, dumper, switch dumper-facing); Execute publishes their
	// queue/utilization gauges into the metrics registry.
	Ports []*sim.Port
	// INT is the in-band telemetry collector; nil unless Options.INT.
	INT *inband.Collector

	// Telemetry and coverage plumbing: ctl is the control hub owning the
	// canonical stream, hubs the per-node hubs in node order, covs the
	// per-node coverage maps.
	ctl  *telemetry.Hub
	hubs []*telemetry.Hub
	covs []*coverage.Map
}

// unreliableQPNs unions the UC/UD destination-QPN sets of every traffic
// generator the testbed drives. Nil for all-RC runs, keeping the
// historical verdict shape.
func (tb *Testbed) unreliableQPNs() map[uint32]bool {
	var set map[uint32]bool
	for _, p := range tb.Pairs {
		for qpn := range p.UnreliableQPNs() {
			if set == nil {
				set = map[uint32]bool{}
			}
			set[qpn] = true
		}
	}
	return set
}

// Build assembles the testbed for cfg without starting traffic: the
// two-host pair testbed, or the leaf-spine fabric when cfg.Fabric is
// set (see topology.go).
func Build(cfg config.Test, opts Options) (*Testbed, error) {
	if opts.Transport != "" {
		if _, err := rnic.ParseTransport(opts.Transport); err != nil {
			return nil, err
		}
		cfg.Traffic.Transport = opts.Transport
		cfg.Traffic.QPTransport = nil
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opts.Deadline <= 0 {
		opts.Deadline = DefaultOptions().Deadline
	}
	if cfg.Fabric != nil {
		return leafSpine(cfg, opts)
	}
	return pair(cfg, opts)
}

// Execute runs traffic to completion (or the deadline), collects all
// results, reconstructs the trace and performs the integrity check.
// Serial phases bracket the conservative-window run, and every artifact
// merges deterministically across nodes (see topology.go).
func (tb *Testbed) Execute() (*Report, error) {
	f, ctl := tb.Fabric, tb.ctl
	ctl.Emit(telemetry.KindRunPhase, "orchestrator", "traffic")
	for _, p := range tb.Pairs {
		if err := p.Start(nil); err != nil {
			return nil, err
		}
	}

	// Run phase. On several nodes each hub records locally while node
	// loops run concurrently; a one-node run keeps sinking into ctl.
	split := len(tb.hubs) > 1
	prefix := len(ctl.Events())
	if split {
		for _, h := range tb.hubs {
			h.SetSink(nil)
		}
	}
	deadline := sim.Time(tb.Opts.Deadline)
	f.DrainUntil(deadline)
	timedOut := !tb.trafficFinished()
	drain := prefix
	if !timedOut {
		// Drain trailing events (mirrors in flight, dumper processing).
		ctl.Emit(telemetry.KindRunPhase, "orchestrator", "drain")
		drain = len(ctl.Events())
		f.Run()
	}
	f.AlignClocks()
	if split {
		tb.mergeRunEvents(prefix, drain, deadline)
		for _, h := range tb.hubs {
			h.SetSink(ctl)
		}
	}

	// TERM the dumpers and rebuild the trace (§3.4, §3.5).
	ctl.Emit(telemetry.KindRunPhase, "orchestrator", "terminate")
	records := tb.Pool.Terminate()
	tr, err := trace.Reconstruct(records)
	if err != nil {
		return nil, fmt.Errorf("orchestrator: trace reconstruction: %w", err)
	}

	rep := &Report{
		Config:            tb.Cfg,
		Traffic:           tb.trafficResults(),
		RequesterCounters: sumCounters(tb.Requesters),
		ResponderCounters: tb.Responder.Counters.Snapshot(),
		SwitchTotals:      tb.Switch.Totals(),
		SwitchPerPort:     tb.Switch.PerPort(),
		TimedOut:          timedOut,
		DurationNs:        f.Now(),
		Trace:             tr,
	}
	for _, n := range tb.Pool.Nodes {
		rep.DumperStats = append(rep.DumperStats, DumperStat{
			Node: n.Index, Rx: n.RxPackets, Discards: n.RxDiscards, Captured: n.Captured,
		})
	}
	if tb.Cfg.Switch.Mirror {
		err := tr.IntegrityCheck(tb.Switch.MirrorCount(), tb.Switch.Totals().RxRoCE)
		rep.IntegrityOK = err == nil
		if err != nil {
			rep.IntegrityDetail = err.Error()
		}
	} else {
		rep.IntegrityOK = true
		rep.IntegrityDetail = "mirroring disabled; no trace collected"
	}
	if tb.Opts.Lineage {
		// Offline reconstruction over finished state: the simulation is
		// already terminated, so this cannot perturb the trace. The
		// verdict probes are emitted before the Events snapshot so they
		// appear as instants on the orchestrator timeline track.
		rep.Lineage = lineage.Build(tr, ctl.Events())
		rep.Verdicts = analyzer.VerdictsWith(tr, rep.Lineage,
			analyzer.VerdictOptions{UnreliableQPNs: tb.unreliableQPNs()})
		for _, v := range rep.Verdicts {
			result := "pass"
			if !v.Pass {
				result = "fail"
			}
			ctl.EmitArgs(telemetry.KindVerdict, "orchestrator", v.Analyzer,
				telemetry.S("result", result),
				telemetry.S("reason", v.Reason))
		}
	}
	if tb.INT != nil {
		rep.INT = tb.buildINTReport(rep, ctl)
	}
	if len(tb.covs) > 0 {
		// The frontier size lands in metrics.json only when telemetry is
		// independently on, keeping metrics.json byte-identical with
		// coverage on or off.
		for _, m := range tb.covs {
			rep.Coverage = coverage.MergeReports(rep.Coverage, m.Report())
		}
		if ctl.Active() {
			ctl.Count("coverage.pairs", int64(rep.Coverage.Covered))
		}
	}
	if ctl.Active() {
		// Per-port fabric gauges (queue high-water mark, link
		// utilization): published whenever telemetry is on, INT or not,
		// so metrics.json always reflects fabric state.
		now := int64(f.Now())
		for _, p := range tb.Ports {
			ctl.SetGauge("port."+p.Name+".max_queue_bytes", p.MaxQueue)
			util := int64(0)
			if now > 0 {
				util = int64(p.Busy) * 1000 / now
				if util > 1000 {
					util = 1000
				}
			}
			ctl.SetGauge("port."+p.Name+".util_permille", util)
		}
		for _, h := range tb.hubs {
			h.Registry().MergeInto(ctl.Registry())
		}
		rep.Metrics = ctl.Snapshot()
		rep.Events = ctl.Events()
	}
	return rep, nil
}

// Run builds and executes a test in one call.
func Run(cfg config.Test, opts Options) (*Report, error) {
	tb, err := Build(cfg, opts)
	if err != nil {
		return nil, err
	}
	return tb.Execute()
}

// WriteArtifacts stores the collected results in dir: report.json,
// trace.pcap, plus — when the corresponding option was on —
// metrics.json, timeline.json, summary.json, int.json, and
// coverage.json.
func (r *Report) WriteArtifacts(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	js, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "report.json"), js, 0o644); err != nil {
		return err
	}
	if r.Trace != nil {
		f, err := os.Create(filepath.Join(dir, "trace.pcap"))
		if err != nil {
			return err
		}
		defer f.Close()
		if err := r.Trace.WritePcap(f); err != nil {
			return err
		}
	}
	if r.Metrics != nil {
		mjs, err := json.MarshalIndent(r.Metrics, "", "  ")
		if err != nil {
			return err
		}
		mjs = append(mjs, '\n')
		if err := os.WriteFile(filepath.Join(dir, "metrics.json"), mjs, 0o644); err != nil {
			return err
		}
	}
	if r.Events != nil {
		f, err := os.Create(filepath.Join(dir, "timeline.json"))
		if err != nil {
			return err
		}
		defer f.Close()
		if err := telemetry.WriteTimeline(f, r.Events); err != nil {
			return err
		}
	}
	if r.Lineage != nil {
		f, err := os.Create(filepath.Join(dir, "summary.json"))
		if err != nil {
			return err
		}
		defer f.Close()
		if err := r.WriteSummary(f); err != nil {
			return err
		}
	}
	if r.INT != nil {
		f, err := os.Create(filepath.Join(dir, "int.json"))
		if err != nil {
			return err
		}
		defer f.Close()
		if err := r.WriteINT(f); err != nil {
			return err
		}
	}
	if r.Coverage != nil {
		f, err := os.Create(filepath.Join(dir, "coverage.json"))
		if err != nil {
			return err
		}
		defer f.Close()
		if err := r.WriteCoverage(f); err != nil {
			return err
		}
	}
	return nil
}
