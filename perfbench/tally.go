package main

import (
	"fmt"
	"sync"
	"time"
)

// checker holds what each plan item's digest must be: the stored
// reference for the default seed, else the first digest this process
// saw for the item. Every repeat of an item — a later pass, the
// traced leg, a resubmission — is checked against it.
type checker struct {
	mu   sync.Mutex
	refs []string // by plan index; nil when the seed has no references
	seen map[int]string
}

func newChecker(refs []string) *checker {
	return &checker{refs: refs, seen: map[int]string{}}
}

func (c *checker) check(item int, digest string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if item < len(c.refs) && c.refs[item] != "" && c.refs[item] != digest {
		return fmt.Errorf("plan item %d: digest %.12s differs from the stored reference %.12s", item, digest, c.refs[item])
	}
	if prev, ok := c.seen[item]; ok && prev != digest {
		return fmt.Errorf("plan item %d: digest %.12s differs from the same item's earlier run %.12s", item, digest, prev)
	}
	c.seen[item] = digest
	return nil
}

// tally accumulates one measured leg: per-job latencies, simulated
// work, and failures. Safe for concurrent clients.
type tally struct {
	mu        sync.Mutex
	latMs     []float64
	attempted int
	failed    int
	pkts      uint64
	events    uint64
	counts    simCounts
	errs      []string
	// done lists when each job finished and the packets it simulated,
	// in the order of latMs, for chunkFigures.
	done []completion
}

type completion struct {
	at   time.Time
	pkts uint64
}

// maxErrs bounds the failure messages kept for the report.
const maxErrs = 8

// add records one job. A failed job's latency counts as infinite, so a
// failure misses any latency limit.
func (t *tally) add(lat time.Duration, r jobResult, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	t.done = append(t.done, completion{at: time.Now(), pkts: r.Pkts})
	if err != nil {
		t.failed++
		t.latMs = append(t.latMs, inf)
		if len(t.errs) < maxErrs {
			t.errs = append(t.errs, err.Error())
		}
		return
	}
	t.latMs = append(t.latMs, lat.Seconds()*1e3)
	t.pkts += r.Pkts
	t.events += r.Events
	if r.Simulated {
		t.counts.add(r.Counts)
	}
}

// chunkFigures splits the jobs finished after start into consecutive
// chunks of n and returns each whole chunk's jobs and packets per
// second and its 90th-percentile latency, where at least minBeyond
// samples lie beyond it. A trailing partial chunk is dropped.
func (t *tally) chunkFigures(start time.Time, n int) (jobs, pkts, p90 []float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	prev := start
	for i := 0; i+n <= len(t.done); i += n {
		var p uint64
		for _, c := range t.done[i : i+n] {
			p += c.pkts
		}
		end := t.done[i+n-1].at
		secs := end.Sub(prev).Seconds()
		prev = end
		jobs = append(jobs, ratio(float64(n), secs))
		pkts = append(pkts, ratio(float64(p), secs))
		if q, ok := percentile(t.latMs[i:i+n], 0.9); ok {
			p90 = append(p90, q)
		}
	}
	return jobs, pkts, p90
}
