package main

import (
	"time"

	"github.com/lumina-sim/lumina/internal/config"
)

// localWorkload runs pair-sweep or fabric-incast: serial jobs in the
// benchmark's own process, cycling through one seed's plan.
type localWorkload struct {
	gen  func(seed int64) ([]localJob, localJob, error)
	seed int64
	jobs []localJob
	chk  *checker
}

// setUp generates the plan and runs the set-up job once, untimed.
func (w *localWorkload) setUp() error {
	jobs, warm, err := w.gen(w.seed)
	if err != nil {
		return err
	}
	w.jobs = jobs
	_, _, err = runLocal(warm, nil, -1)
	return err
}

// refItems is the whole plan: one pass of the grid.
func (w *localWorkload) refItems() int { return len(w.jobs) }

// period is one pass of the plan: every grid cell once.
func (w *localWorkload) period() int { return len(w.jobs) }

// run executes plan items in order, wrapping around, until stop says
// so. Each job's digest is checked before it counts, after its latency
// is taken; the check is a bench.check span of its own.
func (w *localWorkload) run(t *tally, tr *tracer, stop func(done int) bool) {
	for i := 0; !stop(i); i++ {
		item := i % len(w.jobs)
		t0 := time.Now()
		r, out, err := runLocal(w.jobs[item], tr, item)
		lat := time.Since(t0)
		if err == nil {
			sp := tr.begin("bench.check", 0, item, 0)
			r.Digest = out.digest()
			err = w.chk.check(item, r.Digest)
			tr.end(sp)
		}
		t.add(lat, r, err)
	}
}

// scenarios returns no ladder scenarios — the observer ladder runs only
// on serve-campaign — and the first n job documents.
func (w *localWorkload) scenarios(n int) ([]config.Test, [][]byte, error) {
	var docs [][]byte
	for _, j := range w.jobs[:min(n, len(w.jobs))] {
		docs = append(docs, j.YAML)
	}
	return nil, docs, nil
}

// beginLeg has nothing to refresh: local jobs share no state.
func (w *localWorkload) beginLeg(*tracer) error { return nil }

// layerExtras is empty: every local layer figure comes from job spans.
func (w *localWorkload) layerExtras(*tracer) (map[string]float64, error) { return nil, nil }

func (w *localWorkload) close() {}
