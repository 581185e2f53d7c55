package main

import (
	"runtime"
	"time"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/lineage"
	"github.com/lumina-sim/lumina/internal/orchestrator"
)

// ladderSteps adds one observer per step to the program's default
// options: none, then lineage, telemetry, INT and coverage.
var ladderSteps = []struct {
	name  string
	apply func(*orchestrator.Options)
}{
	{"none", func(*orchestrator.Options) {}},
	{"lineage", func(o *orchestrator.Options) { o.Lineage = true }},
	{"telemetry", func(o *orchestrator.Options) { o.Telemetry = true }},
	{"inband", func(o *orchestrator.Options) { o.INT = true }},
	{"coverage", func(o *orchestrator.Options) { o.Coverage = true }},
}

// ladderReps is how often each scenario climbs the ladder; each step
// keeps its fastest time, which damps a one-off stall on the slowest
// scenarios.
const ladderReps = 3

// ladder runs each scenario through orchestrator.Run once per step,
// the steps of one scenario back to back so drift in machine speed
// hits every step alike. It returns the mean milliseconds per job of
// each step, and times lineage.Build directly on the telemetry step's
// reports.
func ladder(cfgs []config.Test, tr *tracer) ([]float64, error) {
	totals := make([]time.Duration, len(ladderSteps))
	for job, cfg := range cfgs {
		best := make([]time.Duration, len(ladderSteps))
		for rep := 0; rep < ladderReps; rep++ {
			opts := orchestrator.DefaultOptions()
			for k, step := range ladderSteps {
				step.apply(&opts)
				// Every step starts on a collected heap, so no step pays
				// for the garbage of the one before it.
				runtime.GC()
				sp := tr.begin("ladder."+step.name, 0, job, 0)
				t0 := time.Now()
				out, err := orchestrator.Run(cfg, opts)
				d := time.Since(t0)
				tr.end(sp)
				if err != nil {
					return nil, err
				}
				if rep == 0 || d < best[k] {
					best[k] = d
				}
				if step.name == "telemetry" {
					sp := tr.begin("lineage.build", 0, job, 0)
					lineage.Build(out.Trace, out.Events)
					tr.end(sp)
				}
			}
		}
		for k, d := range best {
			totals[k] += d
		}
	}
	means := make([]float64, len(totals))
	for k, d := range totals {
		means[k] = ratio(d.Seconds()*1e3, float64(len(cfgs)))
	}
	return means, nil
}
