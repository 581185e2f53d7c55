package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/corpus"
	"github.com/lumina-sim/lumina/internal/orchestrator"
	"github.com/lumina-sim/lumina/internal/resultcache"
	"github.com/lumina-sim/lumina/internal/serve"
)

// campaignClients is the closed-loop client count: each client sends
// its next submission only after the previous one's artifacts are in.
const campaignClients = 2

// submitTimeout bounds one submission end to end; past it the job
// counts as failed.
const submitTimeout = 60 * time.Second

// refPeriods is how many plan periods have stored reference digests.
const refPeriods = 12

// keepForReplay bounds the reports and artifact sets the traced pass
// keeps to time resultcache Render, Put and Get with its own calls.
const keepForReplay = 16

// campaignWorkload runs serve-campaign: an in-process lumina-serve on a
// loopback listener with a fresh result cache, driven over HTTP.
type campaignWorkload struct {
	seed      int64
	corpusDir string
	workDir   string
	entries   []corpus.Entry
	plan      []submission
	chk       *checker

	// artSets holds each original's artifact-set digest, for checking
	// that its resubmissions return identical bytes.
	artMu   sync.Mutex
	artSets map[int]string

	srv      *serve.Server
	hs       *http.Server
	served   chan error
	base     string
	cache    *resultcache.Cache
	cacheDir string
	starts   int

	// Set for the traced leg only.
	tr   *tracer
	hook *runHook
}

// setUp generates the plan, opens a fresh cache, starts the server and
// runs one untimed submission outside the plan.
func (w *campaignWorkload) setUp() error {
	entries, err := corpus.List(w.corpusDir)
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return fmt.Errorf("corpus %s has no entries", w.corpusDir)
	}
	plan, err := genCampaign(w.seed, entries)
	if err != nil {
		return err
	}
	w.entries, w.plan = entries, plan
	if w.artSets == nil {
		w.artSets = map[int]string{}
	}
	if err := w.start(nil); err != nil {
		return err
	}
	warm, err := warmupSubmission(entries)
	if err != nil {
		return err
	}
	out, err := w.submit(newHTTPClient(), -1, warm, 0)
	if err == nil {
		_, err = w.judge(-1, warm, out, 0)
	}
	return err
}

// refItems covers the periods a timed window reaches on a 2-CPU VM
// with room to spare; the server keeps every run's artifacts in memory,
// so storing the whole plan's would take about 3 GB. Later items are
// checked against their own earlier runs only.
func (w *campaignWorkload) refItems() int { return min(refPeriods*w.period(), len(w.plan)) }

func (w *campaignWorkload) period() int { return campaignPeriod(len(w.entries)) }

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
}

// start replaces the running server with a fresh one on a fresh cache.
// A non-nil hook wraps orchestrator.Run through serve.Config.Run.
func (w *campaignWorkload) start(hook *runHook) error {
	if err := w.stop(); err != nil {
		return err
	}
	w.starts++
	w.cacheDir = filepath.Join(w.workDir, fmt.Sprintf("cache-%d", w.starts))
	cache, err := resultcache.Open(w.cacheDir, 0)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	cfg := serve.Config{Cache: cache}
	if hook != nil {
		cfg.Run = hook.run
	}
	w.cache, w.hook = cache, hook
	w.srv = serve.New(cfg)
	w.hs = &http.Server{Handler: w.srv}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	w.base = "http://" + ln.Addr().String()
	return nil
}

// stop shuts the server down, waits for its goroutines and removes its
// cache directory.
func (w *campaignWorkload) stop() error {
	if w.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := w.hs.Shutdown(ctx)
	if serr := <-w.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := w.srv.Shutdown(ctx); err == nil {
		err = derr
	}
	w.srv = nil
	if rerr := os.RemoveAll(w.cacheDir); err == nil {
		err = rerr
	}
	return err
}

func (w *campaignWorkload) close() { _ = w.stop() }

// beginLeg starts a fresh server and cache, so each traced-pass leg
// sees the same misses and hits; the traced leg's server runs jobs
// through a runHook.
func (w *campaignWorkload) beginLeg(tr *tracer) error {
	if tr == nil {
		return w.start(nil)
	}
	return w.start(&runHook{tr: tr})
}

// run drives the plan from campaignClients closed-loop clients until
// stop says so or the plan is exhausted. Items are taken in plan order;
// a resubmission waits for its original to finish first. Each job is
// checked after its latency is taken.
func (w *campaignWorkload) run(t *tally, tr *tracer, stop func(done int) bool) {
	w.tr = tr
	if w.hook != nil {
		w.hook.t = t
	}
	done := make([]chan struct{}, len(w.plan))
	for i := range done {
		done[i] = make(chan struct{})
	}
	var (
		mu   sync.Mutex // guards next, so the stop check and taking an item are one step
		next int
		wg   sync.WaitGroup
	)
	for c := 0; c < campaignClients; c++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			hc := newHTTPClient()
			defer hc.CloseIdleConnections()
			for {
				mu.Lock()
				i := next
				if i >= len(w.plan) || stop(i) {
					mu.Unlock()
					return
				}
				next++
				mu.Unlock()
				sub := w.plan[i]
				if sub.Of >= 0 {
					<-done[sub.Of]
				}
				t0 := time.Now()
				out, err := w.submit(hc, i, sub, lane)
				lat := time.Since(t0)
				var r jobResult
				if err == nil {
					r, err = w.judge(i, sub, out, lane)
				}
				t.add(lat, r, err)
				close(done[i])
			}
		}(c + 1)
	}
	wg.Wait()
}

// servedRun is a finished submission as its client received it.
type servedRun struct {
	status *serve.RunStatus
	arts   map[string][]byte
}

// submit takes one submission to its result: POST, follow the events
// stream to a terminal state, then fetch the status and every artifact.
func (w *campaignWorkload) submit(hc *http.Client, item int, sub submission, lane int) (servedRun, error) {
	ctx, cancel := context.WithTimeout(context.Background(), submitTimeout)
	defer cancel()
	tr := w.tr
	root := tr.begin("job", 0, item, lane)
	defer tr.end(root)
	fail := func(err error) (servedRun, error) {
		return servedRun{}, fmt.Errorf("%s: %w", sub.Label, err)
	}

	req := serve.SubmitRequest{
		Scenario: sub.Scenario, Profile: sub.Profile,
		INT: sub.Opts != optNone, Coverage: sub.Opts != optNone, Telemetry: sub.Opts == optTelINTCov,
	}
	body, err := json.Marshal(&req)
	if err != nil {
		return fail(err)
	}
	sp := tr.begin("serve.submit", root, item, lane)
	code, data, err := w.do(ctx, hc, http.MethodPost, "/v1/runs", body)
	tr.end(sp)
	if err != nil {
		return fail(err)
	}
	if code/100 != 2 {
		if code == http.StatusServiceUnavailable {
			tr.record("serve.rejected", time.Now(), 0, root, item, lane)
		}
		return fail(fmt.Errorf("submit: HTTP %d: %s", code, bytes.TrimSpace(data)))
	}
	var st serve.RunStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return fail(fmt.Errorf("submit response: %w", err))
	}
	if st.State != serve.StateDone && st.State != serve.StateFailed {
		if err := w.follow(ctx, hc, st.ID, root, item, lane); err != nil {
			return fail(err)
		}
	}

	sp = tr.begin("serve.fetch", root, item, lane)
	arts, final, err := w.fetch(ctx, hc, st.ID)
	tr.end(sp)
	if err != nil {
		return fail(err)
	}
	return servedRun{status: final, arts: arts}, nil
}

// follow reads the run's NDJSON event stream until a terminal state,
// timing the wait for a worker and the run as the client sees them.
func (w *campaignWorkload) follow(ctx context.Context, hc *http.Client, id string, root, item, lane int) error {
	streamStart := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/v1/runs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	var running time.Time
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev serve.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("events: %w", err)
		}
		now := time.Now()
		switch ev.State {
		case serve.StateRunning:
			running = now
			w.tr.record("serve.queue_wait", streamStart, now.Sub(streamStart), root, item, lane)
		case serve.StateDone, serve.StateFailed:
			if !running.IsZero() {
				w.tr.record("serve.running", running, now.Sub(running), root, item, lane)
			}
			if ev.State == serve.StateFailed {
				return fmt.Errorf("run failed: %s", ev.Error)
			}
			// The server ends the stream after the terminal event.
			// Reading to its end lets the client reuse the connection
			// instead of opening one per submission.
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				return fmt.Errorf("events: %w", err)
			}
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("events: %w", err)
	}
	return fmt.Errorf("events stream ended before a terminal state")
}

// fetch reads the final status and downloads every listed artifact.
func (w *campaignWorkload) fetch(ctx context.Context, hc *http.Client, id string) (map[string][]byte, *serve.RunStatus, error) {
	code, data, err := w.do(ctx, hc, http.MethodGet, "/v1/runs/"+id, nil)
	if err != nil {
		return nil, nil, err
	}
	if code != http.StatusOK {
		return nil, nil, fmt.Errorf("status: HTTP %d", code)
	}
	var st serve.RunStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, nil, fmt.Errorf("status: %w", err)
	}
	if st.State != serve.StateDone {
		return nil, nil, fmt.Errorf("run %s ended %s: %s", id, st.State, st.Error)
	}
	arts := map[string][]byte{}
	for _, name := range st.Artifacts {
		code, data, err := w.do(ctx, hc, http.MethodGet, "/v1/runs/"+id+"/artifacts/"+name, nil)
		if err != nil {
			return nil, nil, err
		}
		if code != http.StatusOK {
			return nil, nil, fmt.Errorf("artifact %s: HTTP %d", name, code)
		}
		arts[name] = data
	}
	return arts, &st, nil
}

// judge checks a finished submission and turns it into a job result,
// as a bench.check span of its own.
func (w *campaignWorkload) judge(item int, sub submission, out servedRun, lane int) (_ jobResult, err error) {
	sp := w.tr.begin("bench.check", 0, item, lane)
	defer func() {
		w.tr.end(sp)
		if err != nil {
			err = fmt.Errorf("%s: %w", sub.Label, err)
		}
	}()
	st, arts := out.status, out.arts
	if st.Result == nil {
		return jobResult{}, fmt.Errorf("run %s has no result", st.ID)
	}
	rc, err := parseReport(arts["report.json"])
	if err != nil {
		return jobResult{}, err
	}
	if err := rc.check(); err != nil {
		return jobResult{}, err
	}
	h := sha256.New()
	fmt.Fprintln(h, st.Result.SummarySHA256)
	digestInto(h, arts["report.json"])
	digest := hex.EncodeToString(h.Sum(nil))
	if item < 0 {
		return jobResult{Digest: digest}, nil
	}

	set := artifactSetDigest(arts)
	key := item
	if sub.Of >= 0 {
		key = sub.Of
		if !st.CacheHit {
			return jobResult{}, fmt.Errorf("resubmission of plan item %d was not a cache hit", sub.Of)
		}
		w.artMu.Lock()
		want := w.artSets[sub.Of]
		w.artMu.Unlock()
		if set != want {
			return jobResult{}, fmt.Errorf("resubmission of plan item %d returned different artifacts", sub.Of)
		}
	} else {
		w.artMu.Lock()
		if prev, ok := w.artSets[item]; ok && prev != set {
			w.artMu.Unlock()
			return jobResult{}, fmt.Errorf("plan item %d returned different artifacts than its earlier run", item)
		}
		w.artSets[item] = set
		w.artMu.Unlock()
		if w.hook != nil {
			w.hook.keepArtifacts(arts)
		}
	}
	if sub.OwnSeed && sub.Opts != optTelINTCov {
		want := w.entries[sub.Entry].Expected.Profiles[sub.Profile].SummarySHA256
		if st.Result.SummarySHA256 != want {
			return jobResult{}, fmt.Errorf("summary digest %.12s differs from corpus entry %s golden %.12s",
				st.Result.SummarySHA256, w.entries[sub.Entry].ID, want)
		}
	}
	if err := w.chk.check(key, digest); err != nil {
		return jobResult{}, err
	}
	r := jobResult{Digest: digest}
	if !st.CacheHit {
		r.Simulated = true
		r.Pkts = rc.SwitchTotals.RxRoCE
		r.Counts = rc.counts()
	}
	return r, nil
}

// artifactSetDigest hashes every artifact's name and bytes in name
// order.
func artifactSetDigest(arts map[string][]byte) string {
	names := make([]string, 0, len(arts))
	for n := range arts {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		fmt.Fprintln(h, n)
		digestInto(h, arts[n])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (w *campaignWorkload) do(ctx context.Context, hc *http.Client, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, w.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, data, nil
}

// scenarios returns the corpus entries' own scenarios — the campaign's
// distinct scenarios at their native NICs — for the observer ladder,
// and the first n submissions' documents for the config probes.
func (w *campaignWorkload) scenarios(n int) ([]config.Test, [][]byte, error) {
	var cfgs []config.Test
	for _, e := range w.entries {
		cfgs = append(cfgs, e.Config)
	}
	if n > len(w.plan) {
		n = len(w.plan)
	}
	var docs [][]byte
	for _, s := range w.plan[:n] {
		docs = append(docs, []byte(s.Scenario))
	}
	return cfgs, docs, nil
}

// runHook wraps orchestrator.Run through the public serve.Config.Run
// seam for the traced leg: it times Build and Execute, reads the
// simulator's event count, and keeps a few reports and artifact sets
// for the resultcache probes.
type runHook struct {
	tr *tracer
	t  *tally

	mu      sync.Mutex
	reports []*orchestrator.Report
	arts    []map[string][]byte
}

func (h *runHook) run(cfg config.Test, opts orchestrator.Options) (*orchestrator.Report, error) {
	const lane = 0
	root := h.tr.begin("engine.run", 0, -1, lane)
	defer h.tr.end(root)
	sp := h.tr.begin("orchestrator.build", root, -1, lane)
	tb, err := orchestrator.Build(cfg, opts)
	h.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = h.tr.begin("orchestrator.execute", root, -1, lane)
	rep, err := tb.Execute()
	h.tr.end(sp)
	if err != nil {
		return nil, err
	}
	ev := executed(tb)
	h.t.mu.Lock()
	h.t.events += ev
	h.t.mu.Unlock()
	h.mu.Lock()
	if len(h.reports) < keepForReplay {
		h.reports = append(h.reports, rep)
	}
	h.mu.Unlock()
	return rep, nil
}

func (h *runHook) keepArtifacts(arts map[string][]byte) {
	h.mu.Lock()
	if len(h.arts) < keepForReplay {
		h.arts = append(h.arts, arts)
	}
	h.mu.Unlock()
}

// layerExtras times the benchmark's own resultcache calls on what the
// traced leg produced: Render on kept reports, then Put and Get of kept
// artifact sets in a scratch cache. It also reads the served cache's
// hit ratio and mean entry size.
func (w *campaignWorkload) layerExtras(tr *tracer) (map[string]float64, error) {
	out := map[string]float64{}
	h := w.hook
	for _, rep := range h.reports {
		sp := tr.begin("resultcache.render", 0, -1, 0)
		_, err := resultcache.Render(rep)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	dir := filepath.Join(w.workDir, "probe-cache")
	defer os.RemoveAll(dir)
	c, err := resultcache.Open(dir, 0)
	if err != nil {
		return nil, err
	}
	for i, arts := range h.arts {
		k := resultcache.Key{Scenario: fmt.Sprintf("probe-%d", i), Options: "probe"}
		sp := tr.begin("resultcache.put", 0, -1, 0)
		err := c.Put(k, arts)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.begin("resultcache.get", 0, -1, 0)
		_, ok := c.Get(k)
		tr.end(sp)
		if !ok {
			return nil, fmt.Errorf("resultcache probe: Get missed a key just Put")
		}
	}
	st := w.cache.Stats()
	out["resultcache.hit_ratio"] = ratio(float64(st.Hits), float64(st.Hits+st.Misses))
	out["resultcache.entry_kb"] = ratio(float64(st.Bytes)/1024, float64(st.Entries))
	return out, nil
}
