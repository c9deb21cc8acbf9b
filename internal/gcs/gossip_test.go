package gcs

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/netsim"
)

// gossipGroup is one group of a gossip rig; its first member is every
// joiner's contact.
type gossipGroup struct {
	name string
	ids  []ProcessID
}

// gossipRig starts processes on a LAN netsim with default (per-member)
// timers and returns the clock once every group has converged.
func gossipRig(tb testing.TB, groups ...gossipGroup) *clock.Virtual {
	tb.Helper()
	clk := clock.NewVirtual(gcsEpoch)
	net := netsim.New(clk, 1, netsim.LAN())
	procs := make(map[ProcessID]*Process)
	for _, g := range groups {
		for _, id := range g.ids {
			p := procs[id]
			if p == nil {
				ep, err := net.NewEndpoint(id)
				if err != nil {
					tb.Fatal(err)
				}
				p = NewProcess(Config{Clock: clk, Endpoint: ep})
				procs[id] = p
				tb.Cleanup(p.Close)
			}
			if _, err := p.Join(g.name, Handlers{}, g.ids[0]); err != nil {
				tb.Fatal(err)
			}
		}
	}
	clk.Advance(3 * time.Second)
	for _, g := range groups {
		for _, id := range g.ids {
			if v := procs[id].members[g.name].View(); len(v.Members) != len(g.ids) {
				tb.Fatalf("%s in %s: view %v, want %d members", id, g.name, v.Members, len(g.ids))
			}
		}
	}
	return clk
}

// TestAllocsGossipGroup pins the steady-state gossip of an idle group at
// zero allocations per simulated second: heartbeats and failure checks,
// ack vectors sent and folded in both directions, and stability garbage
// collection, on the default per-member timers.
func TestAllocsGossipGroup(t *testing.T) {
	clk := gossipRig(t, gossipGroup{"servers", []ProcessID{"a", "b", "c"}})
	clk.Advance(time.Second) // warm every scratch buffer and free list
	allocs := testing.AllocsPerRun(5, func() { clk.Advance(time.Second) })
	if allocs != 0 {
		t.Fatalf("steady gossip allocs per simulated second = %v, want 0", allocs)
	}
}

// BenchmarkGossipSteady measures the gcs layer's idle cost: three servers
// in one group, one of them also in a session group with a client-like
// member, gossiping for 10 simulated seconds per iteration.
func BenchmarkGossipSteady(b *testing.B) {
	clk := gossipRig(b,
		gossipGroup{"servers", []ProcessID{"srv-1", "srv-2", "srv-3"}},
		gossipGroup{"session", []ProcessID{"srv-1", "client-1"}})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clk.Advance(10 * time.Second)
	}
}
