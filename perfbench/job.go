package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"

	"github.com/lumina-sim/lumina/internal/analyzer"
	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/injector"
	"github.com/lumina-sim/lumina/internal/orchestrator"
	"github.com/lumina-sim/lumina/internal/resultcache"
)

// jobResult is what one finished job contributes to the measurement.
type jobResult struct {
	// Digest identifies the job's simulated outputs; a speed-only change
	// leaves it unchanged.
	Digest string
	// Pkts is the simulated RoCE packets the job's switch received
	// (switch rx_roce), the base of every per-packet figure. Zero for a
	// cache hit, which simulates nothing.
	Pkts uint64
	// Events is the simulator events executed; zero where the
	// benchmark cannot see the simulator (served runs outside the
	// traced pass).
	Events uint64
	// Counts are the report's simulated statistics.
	Counts simCounts
	// Simulated is false for a served cache hit.
	Simulated bool
}

// simCounts are simulated statistics read from a report. They repeat
// exactly for a seed, so a speed-only change must leave them identical.
type simCounts struct {
	TxPkts      uint64 // RoCE packets both NICs sent
	Retx        uint64 // retransmitted packets, both NICs
	AckTimeouts uint64 // local ACK timeouts, both NICs
	InjRx       uint64 // RoCE packets into the injector switch
	Mirrored    uint64 // mirror copies the injector sent to dumpers
	Injected    uint64 // injected events
	Captured    uint64 // packets dumpers captured
	Discards    uint64 // packets dumpers discarded
}

func (c *simCounts) add(o simCounts) {
	c.TxPkts += o.TxPkts
	c.Retx += o.Retx
	c.AckTimeouts += o.AckTimeouts
	c.InjRx += o.InjRx
	c.Mirrored += o.Mirrored
	c.Injected += o.Injected
	c.Captured += o.Captured
	c.Discards += o.Discards
}

// reportCounts is the subset of report.json the benchmark reads; served
// runs are seen only through that artifact.
type reportCounts struct {
	RequesterCounters map[string]uint64         `json:"requester_counters"`
	ResponderCounters map[string]uint64         `json:"responder_counters"`
	SwitchTotals      injector.PortCounters     `json:"switch_totals"`
	DumperStats       []orchestrator.DumperStat `json:"dumper_stats"`
	IntegrityOK       bool                      `json:"integrity_ok"`
	IntegrityDetail   string                    `json:"integrity_detail"`
	TimedOut          bool                      `json:"timed_out"`
}

func (r *reportCounts) counts() simCounts {
	var c simCounts
	for _, m := range []map[string]uint64{r.RequesterCounters, r.ResponderCounters} {
		c.TxPkts += m["tx_roce_packets"]
		c.Retx += m["retransmitted_packets"]
		c.AckTimeouts += m["local_ack_timeout_err"]
	}
	c.InjRx = r.SwitchTotals.RxRoCE
	c.Mirrored = r.SwitchTotals.Mirrored
	c.Injected = r.SwitchTotals.Injected
	for _, d := range r.DumperStats {
		c.Captured += d.Captured
		c.Discards += d.Discards
	}
	return c
}

// check fails a run that timed out or whose trace lost packets.
func (r *reportCounts) check() error {
	if r.TimedOut {
		return fmt.Errorf("run timed out")
	}
	if !r.IntegrityOK {
		return fmt.Errorf("trace integrity check failed: %s", r.IntegrityDetail)
	}
	return nil
}

func countsOfReport(rep *orchestrator.Report) reportCounts {
	return reportCounts{
		RequesterCounters: rep.RequesterCounters, ResponderCounters: rep.ResponderCounters,
		SwitchTotals: rep.SwitchTotals, DumperStats: rep.DumperStats,
		IntegrityOK: rep.IntegrityOK, IntegrityDetail: rep.IntegrityDetail, TimedOut: rep.TimedOut,
	}
}

// executed reads the event count of a testbed's simulator, or of its
// fabric when the run is per-node.
func executed(tb *orchestrator.Testbed) uint64 {
	if tb.Fabric != nil {
		return tb.Fabric.Executed()
	}
	return tb.Sim.Executed()
}

// runLocal takes one scenario to a result the way the lumina CLI does:
// parse and validate, build, execute, the four analyzers, the pcap and
// the cacheable artifact set, both rendered into memory. Every call is a
// span when tr is non-nil. The result has no digest yet: the caller
// computes it with outputDigest after it stops the job's clock.
func runLocal(j localJob, tr *tracer, job int) (jobResult, jobOutputs, error) {
	root := tr.begin("job", 0, job, 0)
	defer tr.end(root)
	step := func(name string, fn func() error) error {
		id := tr.begin(name, root, job, 0)
		err := fn()
		tr.end(id)
		if err != nil {
			return fmt.Errorf("%s: %s: %w", j.Label, name, err)
		}
		return nil
	}

	var cfg config.Test
	if err := step("config.parse", func() error {
		var err error
		if cfg, err = config.Parse(j.YAML); err != nil {
			return err
		}
		return cfg.Validate()
	}); err != nil {
		return jobResult{}, jobOutputs{}, err
	}
	var tb *orchestrator.Testbed
	if err := step("orchestrator.build", func() error {
		var err error
		tb, err = orchestrator.Build(cfg, orchestrator.DefaultOptions())
		return err
	}); err != nil {
		return jobResult{}, jobOutputs{}, err
	}
	var rep *orchestrator.Report
	if err := step("orchestrator.execute", func() error {
		var err error
		rep, err = tb.Execute()
		return err
	}); err != nil {
		return jobResult{}, jobOutputs{}, err
	}
	rc := countsOfReport(rep)
	if err := rc.check(); err != nil {
		return jobResult{}, jobOutputs{}, fmt.Errorf("%s: %w", j.Label, err)
	}

	var out jobOutputs
	_ = step("analyzer", func() error {
		gbn := analyzer.CheckGoBackN(rep.Trace)
		retx := analyzer.AnalyzeRetransmissions(rep.Trace)
		cnp := analyzer.AnalyzeCNP(rep.Trace)
		inc := analyzer.CheckCounters(rep.Trace,
			hostView("requester", cfg.Requester, rep.RequesterCounters),
			hostView("responder", cfg.Responder, rep.ResponderCounters))
		out.analyzers = fmt.Sprintf("gbn=%d/%d/%d retx=%d cnp=%d/%d inconsistencies=%d\n",
			gbn.ConnsChecked, gbn.Events, len(gbn.Violations), len(retx), cnp.TotalCNPs(), cnp.Orphans, len(inc))
		return nil
	})
	var pcap bytes.Buffer
	if err := step("trace.pcap_write", func() error { return rep.Trace.WritePcap(&pcap) }); err != nil {
		return jobResult{}, jobOutputs{}, err
	}
	out.pcap = pcap.Bytes()
	if err := step("resultcache.render", func() error {
		arts, err := resultcache.Render(rep)
		out.report = arts["report.json"]
		return err
	}); err != nil {
		return jobResult{}, jobOutputs{}, err
	}
	return jobResult{
		Pkts:      rep.SwitchTotals.RxRoCE,
		Events:    executed(tb),
		Counts:    rc.counts(),
		Simulated: true,
	}, out, nil
}

// jobOutputs are the simulated outputs a local job's digest covers.
type jobOutputs struct {
	analyzers string // one line of the four analyzers' findings
	report    []byte // report.json
	pcap      []byte // trace.pcap
}

func (o jobOutputs) digest() string {
	h := sha256.New()
	io.WriteString(h, o.analyzers)
	digestInto(h, o.report, o.pcap)
	return hex.EncodeToString(h.Sum(nil))
}

// digestInto folds each part's SHA-256 into h, so parts cannot alias.
func digestInto(h hash.Hash, parts ...[]byte) {
	for _, p := range parts {
		sum := sha256.Sum256(p)
		h.Write(sum[:])
	}
}

func hostView(name string, h config.Host, counters map[string]uint64) analyzer.HostView {
	v := analyzer.HostView{Name: name, Counters: counters}
	for _, ip := range h.NIC.IPList {
		v.IPs = append(v.IPs, ip.String())
	}
	return v
}

// parseReport decodes the report.json artifact of a served run.
func parseReport(data []byte) (*reportCounts, error) {
	var r reportCounts
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("report.json: %w", err)
	}
	return &r, nil
}
