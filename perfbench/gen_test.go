package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/lumina-sim/lumina/internal/corpus"
)

// testCorpus is the repository's regression corpus, seen from this
// package's directory.
const testCorpus = "../corpus"

// planBytes renders a workload's generated inputs for comparison.
func planBytes(t *testing.T, workload string, seed int64) []byte {
	t.Helper()
	var v any
	var err error
	switch workload {
	case "pair-sweep":
		var jobs []localJob
		var warm localJob
		jobs, warm, err = genPairSweep(seed)
		v = append(jobs, warm)
	case "fabric-incast":
		var jobs []localJob
		var warm localJob
		jobs, warm, err = genFabricIncast(seed)
		v = append(jobs, warm)
	case "serve-campaign":
		var entries []corpus.Entry
		if entries, err = corpus.List(testCorpus); err != nil {
			t.Fatal(err)
		}
		v, err = genCampaign(seed, entries)
	}
	if err != nil {
		t.Fatalf("%s seed %d: %v", workload, seed, err)
	}
	js, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return js
}

func TestSameSeedSameInputs(t *testing.T) {
	for name := range workloads {
		a, b := planBytes(t, name, 7), planBytes(t, name, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated different inputs on two calls", name)
		}
		if c := planBytes(t, name, 8); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", name)
		}
	}
}

// TestPlanShapes checks the properties the workloads' rationale rests
// on: pair-sweep and fabric-incast cover their whole grids each pass,
// and every campaign period holds each option set equally often and one
// resubmission per three originals; from the second period on, those
// resubmit every entry once, from the previous period, an equal number
// under each option set.
func TestPlanShapes(t *testing.T) {
	jobs, _, err := genPairSweep(1)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(pairVerbs) * len(pairSizes) * len(pairQPs) * len(pairProfiles); len(jobs) != want {
		t.Errorf("pair-sweep pass has %d jobs, want %d", len(jobs), want)
	}
	if jobs, _, err = genFabricIncast(1); err != nil {
		t.Fatal(err)
	}
	if want := len(fabricHosts) * len(fabricQPs) * len(fabricSizes); len(jobs) != want {
		t.Errorf("fabric-incast pass has %d jobs, want %d", len(jobs), want)
	}
	entries, err := corpus.List(testCorpus)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := genCampaign(1, entries)
	if err != nil {
		t.Fatal(err)
	}
	per := campaignPeriod(len(entries))
	if len(plan)%per != 0 {
		t.Fatalf("campaign plan of %d items is not whole periods of %d", len(plan), per)
	}
	for p := 0; p < len(plan)/per; p++ {
		opts, resubOpts := map[optSet]int{}, map[optSet]int{}
		resubEntries := map[int]int{}
		resubs := 0
		for i, s := range plan[p*per : (p+1)*per] {
			if s.Of >= 0 {
				resubs++
				if s.Of >= p*per+i {
					t.Errorf("item %d resubmits a later item %d", p*per+i, s.Of)
				}
				if p > 0 && (s.Of < (p-1)*per || s.Of >= p*per) {
					t.Errorf("item %d resubmits item %d, outside the previous period", p*per+i, s.Of)
				}
				resubEntries[s.Entry]++
				resubOpts[s.Opts]++
				continue
			}
			opts[s.Opts]++
		}
		if p > 0 {
			for ei := range entries {
				if resubEntries[ei] != 1 {
					t.Errorf("period %d resubmits entry %d %d times, want once", p, ei, resubEntries[ei])
				}
			}
			for o := optSet(0); o < numOptSets; o++ {
				if resubOpts[o]*int(numOptSets) != len(entries) {
					t.Errorf("period %d resubmits option set %s %d times, want %d", p, o, resubOpts[o], len(entries)/int(numOptSets))
				}
			}
		}
		if resubs*4 != per {
			t.Errorf("period %d has %d resubmissions in %d items, want a quarter", p, resubs, per)
		}
		for o := optSet(0); o < numOptSets; o++ {
			if opts[o] != len(entries) {
				t.Errorf("period %d runs option set %s %d times, want %d", p, o, opts[o], len(entries))
			}
		}
	}
	own := 0
	for _, s := range plan {
		if s.OwnSeed {
			own++
		}
	}
	if want := len(entries) * len(corpus.AllProfiles()); own != want {
		t.Errorf("%d cells at the entries' own seeds, want every entry × profile = %d", own, want)
	}
}
