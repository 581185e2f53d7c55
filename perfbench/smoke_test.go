package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/lumina-sim/lumina/internal/corpus"
)

// benchmarkMetrics reads the metric names and units BENCHMARK.json
// promises.
func benchmarkMetrics(t *testing.T) (e2e, layers map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		layers[m.Name] = m.Unit
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	return e2e, layers
}

// tinyPlan keeps only the cheapest grid cells of a local workload.
func tinyPlan(gen func(int64) ([]localJob, localJob, error), cell string) func(int64) ([]localJob, localJob, error) {
	return func(seed int64) ([]localJob, localJob, error) {
		jobs, warm, err := gen(seed)
		var keep []localJob
		for _, j := range jobs {
			if strings.Contains(j.Label, cell) {
				keep = append(keep, j)
			}
		}
		return keep, warm, err
	}
}

// tinyCorpus copies the corpus entries whose scenarios are small pair
// runs into a temporary corpus.
func tinyCorpus(t *testing.T) string {
	t.Helper()
	entries, err := corpus.List(testCorpus)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	n := 0
	for _, e := range entries {
		tr := e.Config.Traffic
		if e.Config.Fabric != nil || tr.NumConnections*tr.PacketsPerQP() > 64 {
			continue
		}
		dst := filepath.Join(dir, e.ID)
		if err := os.MkdirAll(dst, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, f := range []string{"scenario.yaml", "expected.json"} {
			data, err := os.ReadFile(filepath.Join(e.Dir, f))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dst, f), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		n++
	}
	if n < 2 {
		t.Fatalf("only %d small corpus entries", n)
	}
	return dir
}

func tinyWorkload(t *testing.T, name, work string) workload {
	switch name {
	case "pair-sweep":
		return &localWorkload{gen: tinyPlan(genPairSweep, "/1k/q1/"), seed: 1, chk: newChecker(nil)}
	case "fabric-incast":
		return &localWorkload{gen: tinyPlan(genFabricIncast, "/h16/q1/1k/"), seed: 1, chk: newChecker(nil)}
	default:
		return &campaignWorkload{seed: 1, corpusDir: tinyCorpus(t), workDir: work, chk: newChecker(nil)}
	}
}

func checkMetrics(t *testing.T, what string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s: metric %s not printed", what, name)
		} else if m.Unit != unit {
			t.Errorf("%s: metric %s in %q, BENCHMARK.json says %q", what, name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: metric %s is not in BENCHMARK.json", what, name)
		}
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced,
// and checks that each prints exactly the metrics BENCHMARK.json names
// with no failed job.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	e2e, layers := benchmarkMetrics(t)
	for name, def := range workloads {
		t.Run(name, func(t *testing.T) {
			work := t.TempDir()
			w := tinyWorkload(t, name, work)
			defer w.close()
			res, in, err := timedRun(w, def, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted < minSamples {
				t.Errorf("untraced: %d of %d failed (want 0 of >= %d): %v", res.Failed, res.Attempted, minSamples, in.Errors)
			}
			checkMetrics(t, "untraced", res.Metrics, e2e)

			prov := provenance{Workload: name, Seed: 1}
			res, in, err = tracedPass(w, def, work, prov)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 {
				t.Errorf("traced: %d of %d failed: %v", res.Failed, res.Attempted, in.Errors)
			}
			checkMetrics(t, "traced", res.Metrics, layers)
			data, err := os.ReadFile(in.SpanFile)
			if err != nil {
				t.Fatal(err)
			}
			var spans struct {
				TraceEvents []struct{ Name string } `json:"traceEvents"`
				OtherData   provenance              `json:"otherData"`
			}
			if err := json.Unmarshal(data, &spans); err != nil {
				t.Fatalf("span file: %v", err)
			}
			if len(spans.TraceEvents) == 0 || spans.OtherData.Workload != name {
				t.Errorf("span file has %d events for workload %q", len(spans.TraceEvents), spans.OtherData.Workload)
			}
		})
	}
}
