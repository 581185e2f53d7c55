package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		q      float64
		want   float64
		wantOK bool
	}{
		{100, 0.9, 90, true},  // ranks 91..100 lie beyond: exactly ten
		{99, 0.9, 90, false},  // ranks 91..99: nine
		{200, 0.9, 180, true}, // twenty beyond
		{11, 0.5, 6, false},   // five beyond
		{1, 0.9, 1, false},
	} {
		got, ok := percentile(seq(tc.n), tc.q)
		if got != tc.want || ok != tc.wantOK {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.q, got, ok, tc.want, tc.wantOK)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Errorf("percentile of no samples reported ok")
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v, want 2", m)
	}
}

func TestRatioOfZeroBaseIsZero(t *testing.T) {
	if r := ratio(5, 0); r != 0 {
		t.Errorf("ratio(5, 0) = %v, want 0", r)
	}
	if r := ratio(3, 4); r != 0.75 {
		t.Errorf("ratio(3, 4) = %v, want 0.75", r)
	}
}

// TestPerLayerRatioBases pins the denominator of every ratio metric.
func TestPerLayerRatioBases(t *testing.T) {
	tl := &tally{pkts: 200, events: 1000, counts: simCounts{
		TxPkts: 400, Retx: 8, AckTimeouts: 1, InjRx: 200, Mirrored: 250, Injected: 3, Captured: 240, Discards: 10,
	}}
	d := map[string][]float64{
		"orchestrator.build":   {1, 3},      // ms
		"orchestrator.execute": {2, 4},      // 6 ms in all
		"trace.pcap_write":     {0.1, 0.1},  // 0.2 ms
		"analyzer":             {0.2, 0.2},  // 0.4 ms
		"config.parse":         {0.01},      // 10 µs
		"serve.submit":         {1, 2, 3},   // too few for a p90
		"engine.run":           {10, 20},    // 15 ms mean
		"serve.running":        {12, 24},    // 18 ms mean
		"resultcache.render":   {0.5, 1.5},  // 1 ms mean
		"serve.rejected":       {0, 0, 0.0}, // three rejections
		"job":                  {8, 10},     // 18 ms of jobs
		"bench.check":          {1, 1},      // 2 ms of the benchmark's checks
	}
	steps := []float64{10, 11, 15, 16, 18}
	m := perLayer(d, tl, steps, map[string]float64{"resultcache.hit_ratio": 0.25})
	want := map[string]float64{
		"orchestrator.build_ms":           2,
		"orchestrator.execute_ms":         3,
		"orchestrator.execute_ns_per_pkt": 6e6 / 200,  // execute time / switch rx_roce
		"sim.events_per_pkt":              1000 / 200, // events / switch rx_roce
		"sim.ns_per_event":                6e6 / 1000, // execute time / events
		"rnic.retx_ratio":                 8.0 / 400,  // retransmitted / sent
		"dumper.capture_ratio":            240.0 / 250,
		"trace.pcap_write_ns_per_pkt":     0.2e6 / 200,
		"analyzer.ns_per_pkt":             0.4e6 / 200,
		"config.parse_us":                 10,
		"serve.submit_p50_ms":             2,
		"serve.submit_p90_ms":             0,
		"serve.rejected":                  3,
		"engine.run_ms":                   15,
		"engine.overhead_ms":              3,         // served run time beyond the Run hook
		"observers.on_off_ratio":          18.0 / 10, // all observers / none
		"lineage.added_ms_per_job":        1,
		"telemetry.added_ms_per_job":      4,
		"inband.added_ms_per_job":         1,
		"coverage.added_ms_per_job":       2,
		"resultcache.render_ms":           1,
		"resultcache.hit_ratio":           0.25,
		"resultcache.put_ms":              0, // never called: zero, not an error
		"rnic.tx_pkts":                    400,
		"dumper.discards":                 10,
		"bench.check_share":               2.0 / 20, // checks / (jobs + checks)
	}
	for name, v := range want {
		got, ok := m[name]
		if !ok {
			t.Errorf("%s missing", name)
			continue
		}
		if math.Abs(got.Value-v) > 1e-9*math.Max(1, math.Abs(v)) {
			t.Errorf("%s = %v, want %v", name, got.Value, v)
		}
	}
	if len(m) != len(layerUnits) {
		t.Errorf("perLayer returned %d metrics, want %d", len(m), len(layerUnits))
	}
}

func TestChunkFigures(t *testing.T) {
	start := time.Unix(0, 0)
	tl := &tally{}
	for i := 1; i <= 25; i++ {
		tl.done = append(tl.done, completion{at: start.Add(time.Duration(i) * 100 * time.Millisecond), pkts: 10})
		tl.latMs = append(tl.latMs, float64(i))
	}
	jobs, pkts, p90 := tl.chunkFigures(start, 12)
	// Two whole chunks of twelve jobs, each 1.2 s; the 25th job is a
	// partial chunk and is dropped. Twelve samples leave too few beyond
	// a chunk's p90 to report it.
	if len(jobs) != 2 || math.Abs(jobs[0]-10) > 1e-9 || math.Abs(jobs[1]-10) > 1e-9 {
		t.Errorf("job rates = %v, want [10 10]", jobs)
	}
	if len(pkts) != 2 || math.Abs(pkts[0]-100) > 1e-9 {
		t.Errorf("packet rates = %v, want [100 100]", pkts)
	}
	if len(p90) != 0 {
		t.Errorf("p90s = %v from twelve-job chunks, want none", p90)
	}
	for i := 26; i <= 200; i++ {
		tl.done = append(tl.done, completion{at: start.Add(time.Duration(i) * 100 * time.Millisecond)})
		tl.latMs = append(tl.latMs, float64(i))
	}
	if _, _, p90 = tl.chunkFigures(start, 100); len(p90) != 2 || p90[0] != 90 || p90[1] != 190 {
		t.Errorf("p90s of two 100-job chunks = %v, want [90 190]", p90)
	}
}

func TestCheckerFailsMismatches(t *testing.T) {
	c := newChecker([]string{"aaa", ""})
	if err := c.check(0, "aaa"); err != nil {
		t.Fatalf("matching reference: %v", err)
	}
	if err := c.check(0, "bbb"); err == nil {
		t.Errorf("digest differing from the stored reference passed")
	}
	if err := c.check(1, "ccc"); err != nil {
		t.Fatalf("item without a reference: %v", err)
	}
	if err := c.check(1, "ddd"); err == nil {
		t.Errorf("digest differing from the item's earlier run passed")
	}

	tl := &tally{}
	tl.add(time.Millisecond, jobResult{Pkts: 5}, nil)
	tl.add(time.Millisecond, jobResult{}, errors.New("digest mismatch"))
	if tl.attempted != 2 || tl.failed != 1 || tl.pkts != 5 {
		t.Errorf("tally = %d attempted, %d failed, %d pkts; want 2, 1, 5", tl.attempted, tl.failed, tl.pkts)
	}
	if p, _ := percentile(tl.latMs, 0.9); !math.IsInf(p, 1) {
		t.Errorf("a failed job's latency should count as infinite, p90 = %v", p)
	}
}
