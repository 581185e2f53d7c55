package analyzer_test

import (
	"net/netip"
	"testing"

	"github.com/lumina-sim/lumina/internal/analyzer"
	"github.com/lumina-sim/lumina/internal/packet"
	"github.com/lumina-sim/lumina/internal/rnic"
)

// TestCounterHostOwnership pins which trace entries a HostView owns: an
// IPs entry matches an address exactly when it is that address's
// String() spelling. Non-canonical and unparsable entries match
// nothing (the zero Addr's "invalid IP" spelling aside).
func TestCounterHostOwnership(t *testing.T) {
	v6 := netip.MustParseAddr("2001:db8::1")
	b := &traceBuilder{}
	b.add(writePkt(1, packet.OpWriteFirst), packet.EventNone)
	b.add(writePkt(2, packet.OpWriteLast), packet.EventNone)
	p := writePkt(3, packet.OpWriteOnly)
	p.IP.Src = v6
	b.add(p, packet.EventNone)
	p = writePkt(4, packet.OpWriteOnly)
	p.IP.Src = netip.Addr{}
	b.add(p, packet.EventNone)
	tr := b.build()

	for _, tc := range []struct {
		name string
		ips  []string
		want uint64 // trace entries sourced at the host
	}{
		{"canonical v4", []string{"10.0.0.1"}, 2},
		{"canonical v6", []string{"2001:db8::1"}, 1},
		{"both", []string{"10.0.0.1", "2001:db8::1"}, 3},
		{"upper-case v6", []string{"2001:DB8::1"}, 0},
		{"expanded v6", []string{"2001:db8:0:0:0:0:0:1"}, 0},
		{"leading-zero v4", []string{"10.0.0.01"}, 0},
		{"v4-mapped v6", []string{"::ffff:10.0.0.1"}, 0},
		{"unparsable", []string{"not-an-ip"}, 0},
		{"unparsable beside canonical", []string{"not-an-ip", "10.0.0.1"}, 2},
		{"zero address spelling", []string{"invalid IP"}, 1},
		{"none", nil, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inc := analyzer.CheckCounters(tr, analyzer.HostView{Name: "h", IPs: tc.ips})
			var got uint64
			for _, i := range inc {
				if i.Counter == rnic.CtrTxRoCEPackets {
					got = i.Observed
				}
			}
			if got != tc.want {
				t.Fatalf("IPs %q own %d trace entries, want %d", tc.ips, got, tc.want)
			}
		})
	}
}
