package analyzer_test

import (
	"net/netip"
	"reflect"
	"testing"

	"github.com/lumina-sim/lumina/internal/analyzer"
	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/orchestrator"
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

// readReq and readResp build single-packet RDMA Read traffic between
// tIPA (requester) and tIPB (responder): the request targets the
// responder's QP respQP, the response returns to the requester's QP
// reqQP.
func readReq(psn, respQP uint32) packet.Packet {
	return packet.Packet{
		IP:   packet.IPv4{Src: tIPA, Dst: tIPB, Protocol: packet.ProtoUDP},
		UDP:  packet.UDP{DstPort: packet.RoCEv2Port},
		BTH:  packet.BTH{Opcode: packet.OpReadRequest, DestQP: respQP, PSN: psn},
		RETH: packet.RETH{DMALen: 1},
	}
}

func readResp(psn, reqQP uint32) packet.Packet {
	return packet.Packet{
		IP:  packet.IPv4{Src: tIPB, Dst: tIPA, Protocol: packet.ProtoUDP},
		UDP: packet.UDP{DstPort: packet.RoCEv2Port},
		BTH: packet.BTH{Opcode: packet.OpReadResponseOnly, DestQP: reqQP, PSN: psn},
	}
}

func impliedNaks(inc []analyzer.Inconsistency) uint64 {
	for _, i := range inc {
		if i.Counter == rnic.CtrImpliedNakSeq {
			return i.Observed
		}
	}
	return 0
}

// TestCounterImpliedNakOwnConnection pins that a re-read proves an
// implied NAK only on evidence from its own connection's response
// stream. Eight connections see an out-of-order read response; a ninth,
// whose PSN window overlaps theirs, re-reads after in-order responses (a
// timeout recovery) and must not be counted, whichever order the
// analyzer visits the streams in. Only an OOO connection's own re-read
// counts.
func TestCounterImpliedNakOwnConnection(t *testing.T) {
	const clean = 1040 // the clean connection's start PSN
	b := &traceBuilder{}
	for i := uint32(0); i < 8; i++ {
		s := 1000 + 5*i
		b.add(readReq(s, 0x40+i), packet.EventNone)
		b.add(readReq(s+1, 0x40+i), packet.EventNone)
		b.add(readReq(s+2, 0x40+i), packet.EventNone)
		b.add(readResp(s, 0x20+i), packet.EventNone)
		b.add(readResp(s+2, 0x20+i), packet.EventNone) // s+1 never arrived
	}
	b.add(readReq(clean, 0x48), packet.EventNone)
	b.add(readReq(clean+1, 0x48), packet.EventNone)
	b.add(readResp(clean, 0x28), packet.EventNone)
	b.add(readResp(clean+1, 0x28), packet.EventNone)
	b.add(readReq(clean, 0x48), packet.EventNone) // timeout re-read
	host := analyzer.HostView{Name: "req", IPs: []string{tIPA.String()}}

	for run := 0; run < 20; run++ {
		if got := impliedNaks(analyzer.CheckCounters(b.build(), host)); got != 0 {
			t.Fatalf("run %d: clean connection's re-read counted as %d implied NAK(s)", run, got)
		}
	}
	b.add(readReq(1001, 0x40), packet.EventNone) // OOO connection 0 re-reads
	if got := impliedNaks(analyzer.CheckCounters(b.build(), host)); got != 1 {
		t.Fatalf("implied NAKs = %d after the OOO connection's own re-read, want 1", got)
	}
}

// TestCounterCheckDeterministicNoisyNeighbor runs the noisy-neighbor
// scenario (36 read QPs on CX4, 12 with one dropped response each) and
// checks that the counter analyzer gives one answer on repeated passes
// over the same trace: one OOO-evidenced re-read per dropped response.
func TestCounterCheckDeterministicNoisyNeighbor(t *testing.T) {
	cfg, err := config.Load("../../configs/noisy-neighbor.yaml")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := orchestrator.Run(cfg, orchestrator.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	host := hostView("requester", rep.Config.Requester, rep.RequesterCounters)
	want := analyzer.CheckCounters(rep.Trace, host)
	if got := impliedNaks(want); got != uint64(len(cfg.Traffic.Events)) {
		t.Errorf("implied NAKs on the trace = %d, want %d (one per dropped response)", got, len(cfg.Traffic.Events))
	}
	for run := 0; run < 10; run++ {
		if got := analyzer.CheckCounters(rep.Trace, host); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: %v, first run %v", run, got, want)
		}
	}
}
