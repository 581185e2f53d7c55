package orchestrator

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/sim"
	"github.com/lumina-sim/lumina/internal/telemetry"
)

// artifactTree runs cfg at the given shard count and returns every
// artifact file's bytes keyed by name — the whole externally visible
// output of a run.
func artifactTree(t *testing.T, cfg config.Test, opts Options) map[string][]byte {
	t.Helper()
	rep, err := Run(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := rep.WriteArtifacts(dir); err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// requireIdenticalTrees fails on any file present in one tree but not
// the other, or differing in bytes.
func requireIdenticalTrees(t *testing.T, want, got map[string][]byte, label string) {
	t.Helper()
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: artifact %s missing", label, name)
			continue
		}
		if string(w) != string(g) {
			t.Errorf("%s: artifact %s differs (%d vs %d bytes)", label, name, len(w), len(g))
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: unexpected extra artifact %s", label, name)
		}
	}
}

func shardOpts(shards int) Options {
	o := DefaultOptions()
	o.Telemetry = true
	o.Lineage = true
	o.INT = true
	o.Coverage = true
	o.Shards = shards
	return o
}

// TestTimeoutArtifactsIdenticalAcrossShards covers the partial-result
// path on a multi-node fabric: a deadline that expires mid-traffic must
// leave the 16-host incast with the same timed-out artifacts, byte for
// byte, whether its node loops run serially (shards=1) or concurrently
// (shards=8) — the run-phase probe streams splice around the deadline
// boundary the same way.
func TestTimeoutArtifactsIdenticalAcrossShards(t *testing.T) {
	cfg := incastCfg()
	opts1 := shardOpts(1)
	opts1.Deadline = 20 * sim.Microsecond
	opts8 := shardOpts(8)
	opts8.Deadline = 20 * sim.Microsecond

	rep, err := Run(cfg, opts1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.TimedOut {
		t.Fatal("deadline was expected to expire mid-traffic; tighten it")
	}
	// Up to the terminate marker the canonical stream is in timestamp
	// order — build and traffic start at 0, then the merged run phase,
	// which stops at the deadline — with the phase markers in place.
	var phases []string
	term, running := -1, 0
	for i, e := range rep.Events {
		if i > 0 && e.At < rep.Events[i-1].At {
			t.Fatalf("event %d (%s %s) at %d precedes event %d at %d", i, e.Kind, e.Name, e.At, i-1, rep.Events[i-1].At)
		}
		if e.At > int64(opts1.Deadline) {
			t.Fatalf("event %d (%s %s) at %d is past the deadline", i, e.Kind, e.Name, e.At)
		}
		if e.Kind == telemetry.KindRunPhase {
			phases = append(phases, e.Name)
			if e.Name == "terminate" {
				term = i
				break
			}
		} else if e.At > 0 {
			running++
		}
	}
	if want := []string{"setup", "traffic", "terminate"}; !reflect.DeepEqual(phases, want) || term < 0 {
		t.Fatalf("phase markers %q, want %q", phases, want)
	}
	if running == 0 {
		t.Fatal("no run-phase events before the terminate marker")
	}
	want := artifactTree(t, cfg, opts1)
	got := artifactTree(t, cfg, opts8)
	requireIdenticalTrees(t, want, got, "timeout shards=8")
}

// incastCfg is a 16-host leaf-spine incast: 15 senders × 2 QPs into
// host 0.
func incastCfg() config.Test {
	cfg := config.Default()
	cfg.Name = "incast-test"
	cfg.Fabric = &config.FabricTopo{Leaves: 2, HostsPerLeaf: 8, UplinkGbps: 400, Pattern: "incast"}
	cfg.Traffic.NumConnections = 2
	cfg.Traffic.NumMsgsPerQP = 2
	cfg.Traffic.Events = nil
	return cfg
}

// TestFabricIncastArtifactsIdenticalAcrossShards scales the identity
// guarantee to the leaf-spine topology: a 16-host incast produces the
// same bytes at shards=1 (serial window execution) and shards=8
// (parallel shard draining).
func TestFabricIncastArtifactsIdenticalAcrossShards(t *testing.T) {
	cfg := incastCfg()
	want := artifactTree(t, cfg, shardOpts(1))
	got := artifactTree(t, cfg, shardOpts(8))
	requireIdenticalTrees(t, want, got, "incast shards=8")
	if len(want) == 0 {
		t.Fatal("incast run produced no artifacts")
	}
}
