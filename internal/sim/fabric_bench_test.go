package sim_test

import (
	"testing"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/orchestrator"
)

// BenchmarkFabricIncast runs one orchestrated 8-host 2-leaf/1-spine
// incast per op (7 senders × 2 QPs into host 0, 4 shards) — the
// perfgate fabric_incast workload — so its window loop, cross-shard
// deliveries and switch queues are timed end to end.
func BenchmarkFabricIncast(b *testing.B) {
	cfg := config.Default()
	cfg.Fabric = &config.FabricTopo{Leaves: 2, HostsPerLeaf: 4, UplinkGbps: 400, Pattern: "incast"}
	cfg.Traffic.NumConnections = 2
	cfg.Traffic.NumMsgsPerQP = 2
	cfg.Traffic.Events = nil
	opts := orchestrator.DefaultOptions()
	opts.Shards = 4
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := orchestrator.Run(cfg, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.IntegrityOK {
			b.Fatalf("integrity check failed: %s", rep.IntegrityDetail)
		}
	}
}
