package orchestrator

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/sim"
)

// These digests were recorded on the two-host testbed BEFORE it moved
// onto a one-node sim.Fabric, when it still ran on its own inline event
// loop. They pin that move as behaviour-preserving: with every observer
// on (telemetry, lineage, INT, coverage), each artifact a pair run
// writes must keep its exact bytes. summary.json is pinned through
// SummaryDigest so the build's code_version stays out of the digest.
var pairArtifactGoldens = []struct {
	name    string
	cfg     func() config.Test
	timeout bool
	digests map[string]string
}{
	{
		name: "ecn",
		cfg: func() config.Test {
			cfg := baseCfg()
			cfg.Traffic.Events = []config.Event{{Iter: 1, QPN: 1, PSN: 4, Type: "ecn"}}
			return cfg
		},
		digests: map[string]string{
			"coverage.json": "ca06b685cd834df3c9ee6b2e0b3be8814cc28d872e60df40809202861e334c9e",
			"int.json":      "cf2e43c6622fde356bda5912a37fda4fbb3ddf782a9f592f3dd52a65212a3fa3",
			"metrics.json":  "eee36afa032ffb4d68a878016db82bdd0704304cae96a420002967823f32fea6",
			"report.json":   "e431838290f11ede799123dd734a39d9ae4584a16df7090439231b950a3fe8cf",
			"summary.json":  "5b9a82342a71177acebc06f4617f0264ac8240d48b94210099a8541aac82977a",
			"timeline.json": "1d709188d18747178d375ca7d6df59ff05f842178897f83faab928a1eb384ec7",
			"trace.pcap":    "b781f53008506c774359c49c05926f810f4a14bd243eaa83a72c189b1bff930b",
		},
	},
	{
		name:    "deadline-expired",
		cfg:     baseCfg,
		timeout: true,
		digests: map[string]string{
			"coverage.json": "835163b882a86e8f660aeaaeeddf274a29017dcd771f25aa81d4e0610752baef",
			"int.json":      "699b61efb6082bc75373511d59a676a2f2e2777fba6895067dbf63dc5c0fed29",
			"metrics.json":  "21e9db4e0e1c3d89bc6c8e833bc87545fd3c304d06e452cb6f3c97a401baad8b",
			"report.json":   "6f909666504af7f3ab3d9eb209f87093fa2623fbc8b5620d8f609678cc887945",
			"summary.json":  "4c35f041c7a3569ea1ce2d53773bd4e037897d1b21dcd3802b65b2306d5df2c7",
			"timeline.json": "6c529b639649d387d734d329d3681f2dd43fddefea47c2abb102a82d42af105b",
			"trace.pcap":    "5107bf760ed682fd25b7313fd407f5d3f031990b502d3e6b20c88e2d48631171",
		},
	},
	{
		name: "uc-drop",
		cfg:  ucDropConfig,
		digests: map[string]string{
			"coverage.json": "5756d0ad69675aacc834c599445e1c13544e816d363fc5b42f8e58a1832d4cd2",
			"int.json":      "fbb88ae4137ee996c88a3dcd95d1542301896d4302995dd1acf586dabd3a491c",
			"metrics.json":  "0b710f5f295d5a31468da9552aa1718f130b6677b363ae8fb2c74c1c3ac5624d",
			"report.json":   "5ab904729ad0481874bd53992e740bb671fde3baebefe61cfafc1ac5aad155b5",
			"summary.json":  "1a723792dca8128aea2e2b6c6f32e3f82fccd6bc182b34295e737f4867c8f701",
			"timeline.json": "2cbe85930f68a18bd147ed259b56d17cbc0899f5d97c6080f2a51abc46ec46a0",
			"trace.pcap":    "ca755f249e600e1d255b19bdc137765f1b60c492349e73aa6537273568d4418a",
		},
	},
	{
		name: "ud-drop",
		cfg:  udDropConfig,
		digests: map[string]string{
			"coverage.json": "e9df24d0671b4caf2bd7a7399607a87fee8fa55d8487d0ef5c232465b660def5",
			"int.json":      "72978de205f90bcf59533d8c5417a1efd0c680e60fdb9e0b49a7a1c400577a35",
			"metrics.json":  "3214f39b81c2adadd05e2909cea710ad0e3c7a4bddcfec054f40c4513f9a4b10",
			"report.json":   "daeed249749ae30485cccd07548d69ea338beeddc89783d5d0911bb31db49e30",
			"summary.json":  "8275fb37bffc759cd7bf95eba7fa8a64b9d6ca1443edc1d6b5261aa3b9b3d44b",
			"timeline.json": "6be1010d2c7ba924e04c5ada6e6ed4e2b6bd93b9bee04dd84381e0d3ceff5f1b",
			"trace.pcap":    "8a26d76dda61c206736c41ef3ee86a08d0dacc3e9715a0e07db0d4085b79dc3d",
		},
	},
}

// artifactDigests runs cfg and returns the sha256 of every artifact file
// WriteArtifacts emits, with summary.json replaced by SummaryDigest.
func artifactDigests(t *testing.T, cfg config.Test, opts Options) (map[string]string, *Report) {
	t.Helper()
	rep, err := Run(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := rep.WriteArtifacts(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		if e.Name() == "summary.json" {
			d, err := rep.SummaryDigest()
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = d
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		out[e.Name()] = hex.EncodeToString(sum[:])
	}
	return out, rep
}

func TestPairArtifactsMatchGoldens(t *testing.T) {
	for _, g := range pairArtifactGoldens {
		t.Run(g.name, func(t *testing.T) {
			opts := shardOpts(1)
			if g.timeout {
				opts.Deadline = 20 * sim.Microsecond
			}
			got, rep := artifactDigests(t, g.cfg(), opts)
			if rep.TimedOut != g.timeout {
				t.Fatalf("timed out = %v, want %v", rep.TimedOut, g.timeout)
			}
			for name, d := range got {
				if want, ok := g.digests[name]; !ok {
					t.Errorf("%s: unexpected artifact (sha256 %s)", name, d)
				} else if d != want {
					t.Errorf("%s: sha256 %s, golden %s", name, d, want)
				}
			}
			for name := range g.digests {
				if _, ok := got[name]; !ok {
					t.Errorf("%s: artifact missing", name)
				}
			}
		})
	}
}
