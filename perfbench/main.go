// Command perfbench is Lumina's benchmark. It runs one named workload
// from a seed, checks every job's outputs, and prints every metric by
// name with its unit. See README.md for the workloads and metrics.
//
//	go run . --workload pair-sweep --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the result object; the line
// before it records the run's provenance.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/version"
)

// workload is what main drives; localWorkload and campaignWorkload
// implement it.
type workload interface {
	// setUp generates the inputs, opens what the workload needs and runs
	// one untimed job. It may be called again to set up afresh.
	setUp() error
	// beginLeg gives a traced-pass leg a fresh server where the workload
	// has one; tr is non-nil for the traced leg.
	beginLeg(tr *tracer) error
	// run drives jobs into t until stop(itemsTaken) reports true.
	run(t *tally, tr *tracer, stop func(done int) bool)
	// refItems is how many leading plan items --write-refs stores
	// digests for.
	refItems() int
	// period is how many consecutive plan items share one cost mix;
	// timed windows end on a period boundary.
	period() int
	// scenarios returns the observer-ladder scenarios and the first n
	// job documents for the config probes.
	scenarios(n int) ([]config.Test, [][]byte, error)
	// layerExtras returns per-layer figures the workload measures itself,
	// from what the traced leg left behind.
	layerExtras(tr *tracer) (map[string]float64, error)
	close()
}

// workloadDef names a workload and sizes its traced pass.
type workloadDef struct {
	clients int
	// tracedPeriods is how many plan periods each traced-pass leg runs;
	// the traced pass runs fixed work so its counts repeat exactly.
	tracedPeriods int
	// ladder runs the observer ladder in the traced pass.
	ladder bool
	// chunked reports rates and job_p90_ms as medians over chunks of at
	// least minSamples jobs (see timedRun).
	chunked bool
	// retains marks a workload whose live heap climbs with the work
	// done; its heap_peak_mb is read after a collection forced at the
	// end of the fixed work (see timedRun).
	retains bool
	make    func(seed int64, workDir string, chk *checker) workload
}

var workloads = map[string]workloadDef{
	"pair-sweep": {clients: 1, tracedPeriods: 4, chunked: true,
		make: func(seed int64, _ string, chk *checker) workload {
			return &localWorkload{gen: genPairSweep, seed: seed, chk: chk}
		}},
	"fabric-incast": {clients: 1, tracedPeriods: 8, chunked: true,
		make: func(seed int64, _ string, chk *checker) workload {
			return &localWorkload{gen: genFabricIncast, seed: seed, chk: chk}
		}},
	"serve-campaign": {clients: campaignClients, tracedPeriods: 3, ladder: true, retains: true,
		make: func(seed int64, workDir string, chk *checker) workload {
			return &campaignWorkload{seed: seed, corpusDir: corpusDir, workDir: workDir, chk: chk}
		}},
}

// Paths relative to the repository root, where the benchmark runs.
var (
	// refsDir holds the stored reference digests, one file per workload.
	refsDir = filepath.Join("perfbench", "refs")
	// corpusDir is the regression corpus the campaign submits.
	corpusDir = "corpus"
	// workRoot holds each run's caches (removed at exit) and span files.
	workRoot = filepath.Join(".bench_build", "perfbench")
)

const (
	// defaultSeed is the seed the stored references cover.
	defaultSeed = 1
	// setupReps is how many times a run sets up; setup_s is the median,
	// which leaves out the first, cold set-up.
	setupReps = 15
	// minSamples keeps a timed window open until job_p90_ms has
	// minBeyond samples beyond it.
	minSamples = 10 * minBeyond
	// minChunks keeps a timed window open for at least this many
	// chunks; a retaining workload's heap_peak_mb is read at the end of
	// exactly these first chunks.
	minChunks = 6
	// overrun bounds how far past --seconds minSamples may stretch it.
	overrun = 60 * time.Second
)

type provenance struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	BuildStamp string `json:"build_stamp"`
	Clients    int    `json:"clients"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// info is the line before the result: provenance and what the result
// object has no key for. JobP50Ms, the median job latency, is reported
// here and not as a BENCHMARK.json metric: on serve-campaign it moved
// by more than any allowed bound from run to run (see README.md).
type info struct {
	Provenance provenance `json:"provenance"`
	FailRatio  float64    `json:"fail_ratio"`
	Samples    int        `json:"job_samples"`
	JobP50Ms   float64    `json:"job_p50_ms,omitempty"`
	Errors     []string   `json:"errors,omitempty"`
	Notes      []string   `json:"notes,omitempty"`
	SpanFile   string     `json:"span_file,omitempty"`
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		name      = flag.String("workload", "", "workload: pair-sweep, fabric-incast or serve-campaign")
		seed      = flag.Int64("seed", defaultSeed, "seed the inputs are generated from")
		seconds   = flag.Int("seconds", 20, "length of the timed window")
		traced    = flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
		writeRefs = flag.Bool("write-refs", false, "run the seed's plan once and store its digests as references")
	)
	flag.Parse()
	def, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	prov := provenance{
		Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *traced,
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), BuildStamp: version.Stamp(), Clients: def.clients,
	}
	workDir := filepath.Join(workRoot, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(workDir)

	refsPath := filepath.Join(refsDir, *name+".json")
	var refs []string
	if !*writeRefs {
		var err error
		if refs, err = loadRefs(refsPath, *name, *seed); err != nil {
			return err
		}
	}
	chk := newChecker(refs)
	w := def.make(*seed, workDir, chk)
	defer w.close()

	if *writeRefs {
		return storeRefs(refsPath, w, chk, prov)
	}
	var (
		res result
		in  info
		err error
	)
	if *traced == 1 {
		res, in, err = tracedPass(w, def, workRoot, prov)
	} else {
		res, in, err = timedRun(w, def, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		return err
	}
	if refs == nil {
		in.Notes = append(in.Notes, "no stored references for this seed; digests checked for self-consistency only")
	}
	in.Provenance = prov
	in.FailRatio = ratio(float64(res.Failed), float64(res.Attempted))
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for k, m := range res.Metrics {
		if math.IsInf(m.Value, 0) || math.IsNaN(m.Value) {
			m.Value = -1
			res.Metrics[k] = m
			in.Notes = append(in.Notes, k+" is undefined (failed jobs); reported as -1")
		}
	}
	if math.IsInf(in.JobP50Ms, 0) {
		in.JobP50Ms = -1
		in.Notes = append(in.Notes, "job_p50_ms is undefined (failed jobs); reported as -1")
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(&in); err != nil {
		return err
	}
	return enc.Encode(&res)
}

// cpuTime is the process's user plus system time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapPeak tracks the largest live heap — what a collection marked
// reachable — over every collection between start and stop, or since
// the last cut. The heap's
// mapped size (HeapSys) or its in-use size including garbage would
// move with where the collector happened to run: HeapSys is a
// high-water mark that grows in 4 MiB steps and flipped between two
// values from run to run on the small local heaps.
type heapPeak struct {
	stopped atomic.Bool
	peak    atomic.Uint64
}

// gcSentinel is big enough to skip the tiny allocator, whose shared
// blocks would delay its finalizer.
type gcSentinel struct{ _ [16]byte }

// start arms a finalizer that runs after each collection, reads the
// live heap it marked, and re-arms itself until stop.
func (h *heapPeak) start() {
	h.read()
	var after func(*gcSentinel)
	after = func(*gcSentinel) {
		if h.stopped.Load() {
			return
		}
		h.read()
		runtime.SetFinalizer(new(gcSentinel), after)
	}
	runtime.SetFinalizer(new(gcSentinel), after)
}

// read raises the peak to the live heap the last collection marked.
// The finalizer goroutine and cut may call it at once.
func (h *heapPeak) read() {
	v := liveHeap()
	for {
		p := h.peak.Load()
		if v <= p || h.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// cut returns the peak since the last cut in MiB and starts the next
// from the live heap the last collection marked.
func (h *heapPeak) cut() float64 {
	h.read()
	return mib(h.peak.Swap(liveHeap()))
}

// stop ends tracking.
func (h *heapPeak) stop() { h.stopped.Store(true) }

// liveHeap is the live heap the last collection marked, in bytes.
func liveHeap() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// settledHeapMB forces a collection and returns the live heap it
// marked, in MiB.
func settledHeapMB() float64 {
	runtime.GC()
	return mib(liveHeap())
}

func mib(b uint64) float64 { return float64(b) / (1 << 20) }

// setUpTimed sets the workload up setupReps times and returns the
// median wall time in seconds.
func setUpTimed(w workload) (float64, error) {
	var ts []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := w.setUp(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), nil
}

// timedRun measures the end-to-end metrics over one timed window. The
// window ends on a chunk boundary once it has lasted d and holds at
// least minChunks chunks and minSamples jobs. A chunk is one period,
// or with chunked the fewest whole periods holding minSamples jobs;
// then jobs_per_s, sim_pkts_per_s and job_p90_ms are medians over the
// chunks, so a few seconds in which the host ran the VM slowly move
// them less. The local workloads' chunks take under two seconds, so a
// 20-second window has 15 or more. A campaign chunk would be three periods, each with
// one job that takes seconds and lands in one chunk or the next, so
// the campaign reports whole-window figures.
//
// heap_peak_mb is the median over the window's chunks of each chunk's
// peak live heap: a whole-window peak is the one collection that landed
// at the worst moment of the largest job, and moved by 0.18 of its
// median over ten pair-sweep seeds. A retaining workload is different:
// the campaign's server keeps every run's artifacts, so its heap climbs
// with the jobs finished, and a figure over the window would read a
// faster program as a larger one. There heap_peak_mb is the live heap
// after a collection forced once the window's first minChunks chunks —
// a fixed amount of work — are done: the top of the climb, without the
// transient working set of whichever job an ordinary collection
// happened to catch, which moved the peak by 10% between runs of one
// seed.
func timedRun(w workload, def workloadDef, d time.Duration) (result, info, error) {
	setupS, err := setUpTimed(w)
	if err != nil {
		return result{}, info{}, err
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	t := &tally{}
	per := w.period()
	chunk := per
	if def.chunked {
		chunk = per * ((minSamples + per - 1) / per)
	}
	var (
		heap    heapPeak
		fixed   = minChunks * chunk
		heapMB  = -1.0 // set once, for a retaining workload
		peaks   []float64
		lastCut int
	)
	heap.start()
	start := time.Now()
	// run calls stop before taking each item, one call at a time.
	w.run(t, nil, func(done int) bool {
		switch {
		case def.retains && heapMB < 0 && done >= fixed:
			heap.stop()
			heapMB = settledHeapMB()
		case !def.retains && done > lastCut && done%chunk == 0:
			peaks, lastCut = append(peaks, heap.cut()), done
		}
		el := time.Since(start)
		return (el >= d && done >= minSamples && done >= fixed && done%chunk == 0) || el >= d+overrun
	})
	secs := time.Since(start).Seconds()
	cpu := (cpuTime() - cpu0).Seconds() * 1e3
	runtime.ReadMemStats(&ms1)
	heap.stop()
	in := info{Samples: t.attempted, JobP50Ms: median(t.latMs), Errors: t.errs}
	switch {
	case def.retains && heapMB < 0:
		heapMB = settledHeapMB()
		in.Notes = append(in.Notes, fmt.Sprintf("heap_peak_mb was read after %d jobs, not the %d it is defined over", t.attempted, fixed))
	case !def.retains:
		if len(peaks) == 0 {
			peaks = append(peaks, heap.cut())
		}
		heapMB = median(peaks)
	}

	pkts := float64(t.pkts)
	m := map[string]metric{
		"setup_s":        {setupS, "s"},
		"jobs_per_s":     {ratio(float64(t.attempted), secs), "1/s"},
		"cpu_ms_per_job": {ratio(cpu, float64(t.attempted)), "ms"},
		"sim_pkts_per_s": {ratio(pkts, secs), "1/s"},
		"allocs_per_pkt": {ratio(float64(ms1.Mallocs-ms0.Mallocs), pkts), "count"},
		"bytes_per_pkt":  {ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc), pkts), "B"},
		"heap_peak_mb":   {heapMB, "MiB"},
	}
	p90, p90ok := percentile(t.latMs, 0.9)
	if def.chunked {
		jobs, pkts, p90s := t.chunkFigures(start, chunk)
		m["jobs_per_s"] = metric{median(jobs), "1/s"}
		m["sim_pkts_per_s"] = metric{median(pkts), "1/s"}
		p90, p90ok = median(p90s), len(p90s) > 0
	}
	if p90ok {
		m["job_p90_ms"] = metric{p90, "ms"}
	} else {
		in.Notes = append(in.Notes, fmt.Sprintf("job_p90_ms omitted: %d samples leave fewer than %d beyond it", t.attempted, minBeyond))
	}
	if t.attempted%chunk != 0 {
		in.Notes = append(in.Notes, "the window closed mid-chunk (plan exhausted or overrun)")
	}
	if t.failed > 0 {
		in.Notes = append(in.Notes, "jobs_per_s counts failed jobs as completions; see failed")
	}
	return result{Attempted: t.attempted, Failed: t.failed, Metrics: m}, in, nil
}

// tracedPass runs the same fixed plan items four times — an untimed
// warm-up leg, then untraced, traced, untraced — checks that every
// leg's digests agree, and derives the per-layer metrics from the
// traced leg's spans and probes. The untraced legs on either side give
// the traced one a warm baseline that drifts with it.
func tracedPass(w workload, def workloadDef, workRoot string, prov provenance) (result, info, error) {
	if err := w.setUp(); err != nil {
		return result{}, info{}, fmt.Errorf("set-up: %w", err)
	}
	n := def.tracedPeriods * w.period()
	leg := func(tr *tracer) (*tally, time.Duration, error) {
		if err := w.beginLeg(tr); err != nil {
			return nil, 0, err
		}
		t := &tally{}
		t0 := time.Now()
		w.run(t, tr, func(done int) bool { return done >= n })
		return t, time.Since(t0), nil
	}
	warm, _, err := leg(nil)
	if err != nil {
		return result{}, info{}, err
	}
	before, beforeWall, err := leg(nil)
	if err != nil {
		return result{}, info{}, err
	}
	tr := newTracer()
	t, tracedWall, err := leg(tr)
	if err != nil {
		return result{}, info{}, err
	}
	// The probes read what the traced leg left behind, before the next
	// leg replaces it.
	extras, err := w.layerExtras(tr)
	if err != nil {
		return result{}, info{}, err
	}
	after, afterWall, err := leg(nil)
	if err != nil {
		return result{}, info{}, err
	}
	plainWall := (beforeWall + afterWall) / 2

	cfgs, docs, err := w.scenarios(n)
	if err != nil {
		return result{}, info{}, err
	}
	for _, doc := range docs {
		sp := tr.begin("config.parse", 0, -1, 0)
		cfg, err := config.Parse(doc)
		if err == nil {
			err = cfg.Validate()
		}
		tr.end(sp)
		if err != nil {
			return result{}, info{}, fmt.Errorf("config probe: %w", err)
		}
		sp = tr.begin("config.hash", 0, -1, 0)
		_, err = config.ContentHash(cfg)
		tr.end(sp)
		if err != nil {
			return result{}, info{}, fmt.Errorf("config probe: %w", err)
		}
	}
	var steps []float64
	if def.ladder {
		if steps, err = ladder(cfgs, tr); err != nil {
			return result{}, info{}, fmt.Errorf("observer ladder: %w", err)
		}
	}

	m := perLayer(tr.durations(), t, steps, extras)
	m["bench.trace_overhead_ratio"] = metric{ratio(tracedWall.Seconds(), plainWall.Seconds()), "ratio"}

	legs := []*tally{warm, before, t, after}
	in := info{}
	res := result{Metrics: m}
	for _, l := range legs {
		in.Errors = append(in.Errors, l.errs...)
		res.Attempted += l.attempted
		res.Failed += l.failed
	}
	in.Samples = res.Attempted
	spanFile := filepath.Join(workRoot, fmt.Sprintf("spans-%s-seed%d.json", prov.Workload, prov.Seed))
	if err := writeSpans(spanFile, tr, prov); err != nil {
		return result{}, info{}, err
	}
	in.SpanFile = spanFile
	return res, in, nil
}

func writeSpans(path string, tr *tracer, prov provenance) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f, prov); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerUnits lists every per-layer metric with its unit.
var layerUnits = map[string]string{
	"orchestrator.build_ms":           "ms",
	"orchestrator.execute_ms":         "ms",
	"orchestrator.execute_ns_per_pkt": "ns",
	"sim.events_per_pkt":              "count",
	"sim.ns_per_event":                "ns",
	"rnic.tx_pkts":                    "count",
	"rnic.retx_ratio":                 "ratio",
	"rnic.ack_timeouts":               "count",
	"injector.rx_pkts":                "count",
	"injector.mirrored":               "count",
	"injector.injected":               "count",
	"dumper.capture_ratio":            "ratio",
	"dumper.discards":                 "count",
	"trace.pcap_write_ns_per_pkt":     "ns",
	"analyzer.ns_per_pkt":             "ns",
	"config.parse_us":                 "us",
	"config.hash_us":                  "us",
	"observers.on_off_ratio":          "ratio",
	"lineage.added_ms_per_job":        "ms",
	"telemetry.added_ms_per_job":      "ms",
	"inband.added_ms_per_job":         "ms",
	"coverage.added_ms_per_job":       "ms",
	"lineage.build_ms":                "ms",
	"resultcache.render_ms":           "ms",
	"resultcache.put_ms":              "ms",
	"resultcache.get_ms":              "ms",
	"resultcache.hit_ratio":           "ratio",
	"resultcache.entry_kb":            "KiB",
	"serve.submit_p50_ms":             "ms",
	"serve.submit_p90_ms":             "ms",
	"serve.queue_wait_ms":             "ms",
	"serve.fetch_ms":                  "ms",
	"serve.rejected":                  "count",
	"engine.run_ms":                   "ms",
	"engine.overhead_ms":              "ms",
	"bench.trace_overhead_ratio":      "ratio",
	"bench.check_share":               "ratio",
}

// perLayer derives the per-layer metrics. Every per-packet figure uses
// the traced leg's simulated RoCE packets (switch rx_roce) as its base;
// a layer the workload never calls reports 0.
func perLayer(d map[string][]float64, t *tally, steps []float64, extras map[string]float64) map[string]metric {
	sum := func(name string) float64 {
		s := 0.0
		for _, v := range d[name] {
			s += v
		}
		return s
	}
	mean := func(name string) float64 { return ratio(sum(name), float64(len(d[name]))) }
	pkts, events := float64(t.pkts), float64(t.events)
	c := t.counts
	v := map[string]float64{
		"orchestrator.build_ms":           mean("orchestrator.build"),
		"orchestrator.execute_ms":         mean("orchestrator.execute"),
		"orchestrator.execute_ns_per_pkt": ratio(sum("orchestrator.execute")*1e6, pkts),
		"sim.events_per_pkt":              ratio(events, pkts),
		"sim.ns_per_event":                ratio(sum("orchestrator.execute")*1e6, events),
		"rnic.tx_pkts":                    float64(c.TxPkts),
		"rnic.retx_ratio":                 ratio(float64(c.Retx), float64(c.TxPkts)),
		"rnic.ack_timeouts":               float64(c.AckTimeouts),
		"injector.rx_pkts":                float64(c.InjRx),
		"injector.mirrored":               float64(c.Mirrored),
		"injector.injected":               float64(c.Injected),
		"dumper.capture_ratio":            ratio(float64(c.Captured), float64(c.Mirrored)),
		"dumper.discards":                 float64(c.Discards),
		"trace.pcap_write_ns_per_pkt":     ratio(sum("trace.pcap_write")*1e6, pkts),
		"analyzer.ns_per_pkt":             ratio(sum("analyzer")*1e6, pkts),
		"config.parse_us":                 mean("config.parse") * 1e3,
		"config.hash_us":                  mean("config.hash") * 1e3,
		"lineage.build_ms":                mean("lineage.build"),
		"resultcache.render_ms":           mean("resultcache.render"),
		"resultcache.put_ms":              mean("resultcache.put"),
		"resultcache.get_ms":              mean("resultcache.get"),
		"serve.queue_wait_ms":             mean("serve.queue_wait"),
		"serve.fetch_ms":                  mean("serve.fetch"),
		"serve.rejected":                  float64(len(d["serve.rejected"])),
		"engine.run_ms":                   mean("engine.run"),
		"bench.check_share":               ratio(sum("bench.check"), sum("job")+sum("bench.check")),
	}
	if len(d["engine.run"]) > 0 {
		v["engine.overhead_ms"] = mean("serve.running") - mean("engine.run")
	}
	v["serve.submit_p50_ms"] = median(d["serve.submit"])
	if p90, ok := percentile(d["serve.submit"], 0.9); ok {
		v["serve.submit_p90_ms"] = p90
	}
	if len(steps) == len(ladderSteps) {
		v["observers.on_off_ratio"] = ratio(steps[len(steps)-1], steps[0])
		for k := 1; k < len(steps); k++ {
			v[ladderSteps[k].name+".added_ms_per_job"] = steps[k] - steps[k-1]
		}
	}
	for k, x := range extras {
		v[k] = x
	}
	m := map[string]metric{}
	for name, unit := range layerUnits {
		m[name] = metric{v[name], unit}
	}
	return m
}

// refsFile is a stored set of reference digests: one per plan item of
// the default seed, "" where an item has none of its own (a
// resubmission is checked against its original).
type refsFile struct {
	Workload   string     `json:"workload"`
	Seed       int64      `json:"seed"`
	Provenance provenance `json:"provenance"`
	Digests    []string   `json:"digests"`
}

// loadRefs returns the stored digests for workload at seed, or nil when
// none are stored for that seed.
func loadRefs(path, workload string, seed int64) ([]string, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var f refsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Workload != workload {
		return nil, fmt.Errorf("%s holds references for %q", path, f.Workload)
	}
	if f.Seed != seed {
		return nil, nil
	}
	return f.Digests, nil
}

// storeRefs runs every plan item once and writes the digests.
func storeRefs(path string, w workload, chk *checker, prov provenance) error {
	if err := w.setUp(); err != nil {
		return err
	}
	t := &tally{}
	n := w.refItems()
	w.run(t, nil, func(done int) bool { return done >= n })
	if t.failed > 0 {
		return fmt.Errorf("%d of %d plan items failed: %v", t.failed, t.attempted, t.errs)
	}
	f := refsFile{Workload: prov.Workload, Seed: prov.Seed, Provenance: prov, Digests: make([]string, n)}
	items := make([]int, 0, len(chk.seen))
	for i := range chk.seen {
		items = append(items, i)
	}
	sort.Ints(items)
	for _, i := range items {
		f.Digests[i] = chk.seen[i]
	}
	js, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(js, '\n'), 0o644)
}
