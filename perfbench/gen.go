package main

import (
	"fmt"
	"math/rand"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/corpus"
)

// localJob is one scenario a pair-sweep or fabric-incast run takes to a
// result. YAML is the only thing the program sees; Label names the
// cost-determining grid cell for the span file and failure messages.
type localJob struct {
	Label string
	YAML  []byte
}

// The pair-sweep grid. Every seed covers every cell once per pass, so
// the cost mix is the same for every seed; the seed picks the
// simulation seed, the intent positions and the order.
var (
	pairVerbs    = []string{"write", "send", "read"}
	pairSizes    = []int{1 << 10, 4 << 10, 16 << 10, 64 << 10}
	pairQPs      = []int{1, 4, 16}
	pairProfiles = []string{"cx4", "cx5", "cx6", "e810"}
	// pairMsgs keeps messages per QP inversely proportional to size,
	// so a 1 KiB cell is many one-packet messages and a 64 KiB cell a
	// few long ones.
	pairMsgs = map[int]int{1 << 10: 8, 4 << 10: 4, 16 << 10: 2, 64 << 10: 1}
)

// The fabric-incast grid: leaf-spine incast at three host counts, 1–4
// QPs per sender, small messages. Its 27 cells put no percentile the
// benchmark reports on the boundary between two cells.
var (
	fabricHosts = []int{16, 32, 64}
	fabricQPs   = []int{1, 2, 4}
	fabricSizes = []int{1 << 10, 2 << 10, 4 << 10}
)

// fabricHostsPerLeaf is the leaf width; host count sets the leaf count.
const fabricHostsPerLeaf = 8

func baseTest(seed int64, profile string) config.Test {
	t := config.Default()
	t.Seed = seed
	t.Requester.NIC.Type = profile
	t.Responder.NIC.Type = profile
	return t
}

// simSeed draws a positive simulation seed (0 would be defaulted to 1).
func simSeed(rng *rand.Rand) int64 { return rng.Int63n(1<<31-1) + 1 }

// genPairSweep returns one pass of pair-testbed jobs for seed, and the
// last — largest — grid cell again as the set-up job, so set-up costs
// the same for every seed and is long enough to time steadily. Every
// fourth cell carries an ECN intent, every fourth a drop, and every
// fourth both an ECN and a drop intent; those last cells run UC or UD
// where the verb allows it (all but read).
func genPairSweep(seed int64) ([]localJob, localJob, error) {
	rng := rand.New(rand.NewSource(seed))
	var jobs []localJob
	i := 0
	for _, verb := range pairVerbs {
		for _, size := range pairSizes {
			for _, qps := range pairQPs {
				for _, prof := range pairProfiles {
					t := baseTest(simSeed(rng), prof)
					tr := &t.Traffic
					tr.Verb, tr.MessageSize, tr.NumConnections = verb, size, qps
					tr.NumMsgsPerQP = pairMsgs[size]
					pkts := tr.PacketsPerQP()
					intent := func(kind string) config.Event {
						return config.Event{QPN: 1 + rng.Intn(qps), PSN: 1 + rng.Intn(pkts), Iter: 1, Type: kind}
					}
					kind := "plain"
					switch i % 4 {
					case 1:
						kind = "ecn"
						tr.Events = []config.Event{intent("ecn")}
					case 2:
						kind = "drop"
						tr.Events = []config.Event{intent("drop")}
					case 3:
						switch {
						case verb == "send" && size <= tr.MTU:
							kind, tr.Transport = "ud+ecn+drop", "ud"
						case verb == "read":
							kind = "ecn+drop"
						default:
							kind, tr.Transport = "uc+ecn+drop", "uc"
						}
						tr.Events = []config.Event{intent("ecn"), intent("drop")}
					}
					label := fmt.Sprintf("pair/%s/%dk/q%d/%s/%s", verb, size>>10, qps, prof, kind)
					j, err := marshalJob(label, t)
					if err != nil {
						return nil, localJob{}, err
					}
					jobs = append(jobs, j)
					i++
				}
			}
		}
	}
	warm := jobs[len(jobs)-1]
	shuffle(rng, jobs)
	return jobs, warm, nil
}

// genFabricIncast returns one pass of leaf-spine incast jobs for seed,
// and the last — largest — grid cell again as the set-up job. The NIC
// profiles cycle through the grid, so the cost mix is the same for
// every seed; the seed picks simulation seeds and order.
func genFabricIncast(seed int64) ([]localJob, localJob, error) {
	rng := rand.New(rand.NewSource(seed))
	var jobs []localJob
	for _, hosts := range fabricHosts {
		for _, qps := range fabricQPs {
			for _, size := range fabricSizes {
				prof := pairProfiles[len(jobs)%len(pairProfiles)]
				t := baseTest(simSeed(rng), prof)
				t.Fabric = &config.FabricTopo{
					Leaves: hosts / fabricHostsPerLeaf, HostsPerLeaf: fabricHostsPerLeaf,
					UplinkGbps: 400, Pattern: "incast",
				}
				t.Switch.Inject = false
				t.Requester.RoCE.MinTimeBetweenCNPs = 0
				t.Responder.RoCE.MinTimeBetweenCNPs = 0
				tr := &t.Traffic
				tr.NumConnections, tr.MessageSize = qps, size
				tr.NumMsgsPerQP = 2
				tr.BarrierSync = true
				label := fmt.Sprintf("fabric/h%d/q%d/%dk/%s", hosts, qps, size>>10, prof)
				j, err := marshalJob(label, t)
				if err != nil {
					return nil, localJob{}, err
				}
				jobs = append(jobs, j)
			}
		}
	}
	warm := jobs[len(jobs)-1]
	shuffle(rng, jobs)
	return jobs, warm, nil
}

func marshalJob(label string, t config.Test) (localJob, error) {
	if err := t.Validate(); err != nil {
		return localJob{}, fmt.Errorf("generating %s: %w", label, err)
	}
	y, err := t.MarshalYAML()
	if err != nil {
		return localJob{}, fmt.Errorf("generating %s: %w", label, err)
	}
	return localJob{Label: label, YAML: y}, nil
}

func shuffle[T any](rng *rand.Rand, xs []T) {
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

// Option sets the campaign rotates through. Served runs always build
// lineage; these add the other observers.
type optSet int

const (
	optNone optSet = iota
	optINTCov
	optTelINTCov
	numOptSets
)

func (o optSet) String() string {
	return [...]string{"none", "int+cov", "tel+int+cov"}[o]
}

// submission is one campaign request. A resubmission repeats an
// earlier original (Of) byte for byte and must come back as a cache
// hit with identical artifacts.
type submission struct {
	Label    string
	Scenario string
	Profile  string
	Opts     optSet
	// Entry indexes the corpus entry the scenario derives from.
	Entry int
	// OwnSeed marks a cell at the entry's own seed; with telemetry off
	// its summary digest must equal the entry's expected.json golden.
	OwnSeed bool
	// Of is the index of the original this resubmits, or -1.
	Of int
}

// campaignSlots is how many NIC profiles one campaign period covers.
// The option set rotates with entry and slot, so within a period every
// entry meets every option set once and every period has the same cost
// mix.
const campaignSlots = int(numOptSets)

// campaignPeriods bounds the generated plan; a timed window that ever
// exhausts it closes early and says so.
const campaignPeriods = 32

// campaignPeriod is the number of plan items in one period: every entry
// under campaignSlots profiles, plus one resubmission per three.
func campaignPeriod(entries int) int { return entries * campaignSlots * 4 / 3 }

// genCampaign returns the serve-campaign plan. Profiles cycle through
// the periods' slots; the first time an (entry, profile) cell comes up
// it runs at the entry's own seed, later times re-seeded from seed.
// After every third original comes a resubmission. From the second
// period on, each period resubmits every entry once, a third of them
// under each option set, each from its cell in the previous period;
// the seed only orders them. Every period so has the same mix of hits,
// and a seed cannot make the campaign cheaper by drawing cheap ones.
// The first period resubmits the first of the latest three originals,
// which has usually completed.
func genCampaign(seed int64, entries []corpus.Entry) ([]submission, error) {
	rng := rand.New(rand.NewSource(seed))
	profiles := corpus.AllProfiles()
	ownDone := map[[2]int]bool{}
	var plan []submission
	var originals []int
	// cell maps (entry, option set) to its plan index in the current
	// and the previous period.
	cell, prevCell := map[[2]int]int{}, map[[2]int]int{}
	for period := 0; period < campaignPeriods; period++ {
		resubs := rng.Perm(len(entries))
		shift := rng.Intn(int(numOptSets))
		for slot := 0; slot < campaignSlots; slot++ {
			pi := (period*campaignSlots + slot) % len(profiles)
			prof := profiles[pi]
			for ei, e := range entries {
				cfg := e.Config
				own := !ownDone[[2]int{ei, pi}]
				ownDone[[2]int{ei, pi}] = true
				if !own {
					cfg.Seed = simSeed(rng)
					if cfg.Seed == e.Config.Seed {
						cfg.Seed++
					}
				}
				y, err := cfg.MarshalYAML()
				if err != nil {
					return nil, fmt.Errorf("generating campaign cell %s/%s: %w", e.ID, prof, err)
				}
				opts := optSet((ei + slot) % int(numOptSets))
				cell[[2]int{ei, int(opts)}] = len(plan)
				originals = append(originals, len(plan))
				plan = append(plan, submission{
					Label:    fmt.Sprintf("serve/%s/%s/p%d/%s", e.ID, prof, period, opts),
					Scenario: string(y), Profile: prof, Opts: opts,
					Entry: ei, OwnSeed: own, Of: -1,
				})
				if len(originals)%3 != 0 {
					continue
				}
				of := originals[len(originals)-3]
				if period > 0 {
					// j counts this period's resubmissions.
					j := (len(originals)/3 - 1) % len(entries)
					of = prevCell[[2]int{resubs[j], (j + shift) % int(numOptSets)}]
				}
				r := plan[of]
				r.Label, r.Of, r.OwnSeed = "resubmit/"+plan[of].Label, of, false
				plan = append(plan, r)
			}
		}
		cell, prevCell = map[[2]int]int{}, cell
	}
	return plan, nil
}

// warmupSubmission is the untimed set-up job of a campaign: the first
// corpus entry at a seed no plan cell uses.
func warmupSubmission(entries []corpus.Entry) (submission, error) {
	cfg := entries[0].Config
	cfg.Seed = 1 << 40
	y, err := cfg.MarshalYAML()
	if err != nil {
		return submission{}, err
	}
	return submission{Label: "warmup", Scenario: string(y), Profile: corpus.AllProfiles()[0], Of: -1}, nil
}
