package main

import (
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"repro/internal/metrics"
	"repro/internal/mpeg"
	"repro/internal/sim"
	"repro/internal/transport"
)

// paperOutcome aggregates the LAN (Figure 4) and WAN (Figure 5) scenarios
// over a consecutive seed range.
type paperOutcome struct {
	runs      int // scenario runs (one viewer each)
	failed    int // runs below 80% of the expected frames
	lanStalls uint64
	iSkipped  uint64 // I frames discarded on overflow, LAN and WAN
	stalls    uint64
	skipped   uint64
	due       uint64
	opens     uint64
	takeover  []float64         // ms from the crash to the new server's first sample
	missing   int               // runs whose session never moved to a live server
	worstLAN  float64           // worst LAN takeover, ms
	worstWAN  float64           // worst WAN takeover, ms
	counters  map[string]uint64 // obs counters summed over nodes and runs
	digest    uint64
}

// runPaper runs sim.LANScenario and sim.WANScenario for seeds first..first+n-1.
func runPaper(first int64, n int) paperOutcome {
	out := paperOutcome{counters: make(map[string]uint64)}
	h := fnv.New64a()
	lanCrash, _ := sim.EventTimesLAN()
	_, wanCrash := sim.EventTimesWAN()
	for s := first; s < first+int64(n); s++ {
		for _, run := range []struct {
			sc      sim.Scenario
			crashAt time.Duration
			lan     bool
		}{
			{sim.LANScenario(s), lanCrash, true},
			{sim.WANScenario(s), wanCrash, false},
		} {
			res := sim.Run(run.sc)
			out.add(res, run.crashAt, run.lan)
			fmt.Fprintf(h, "%s|%d|%+v|%+v|", res.Name, s, res.Final, res.ClientStats)
			ids := make([]string, 0, len(res.ServerStats))
			for id := range res.ServerStats {
				ids = append(ids, id)
			}
			sort.Strings(ids)
			for _, id := range ids {
				fmt.Fprintf(h, "%s=%+v|", id, res.ServerStats[id])
			}
			nodes := make([]string, 0, len(res.Obs))
			for id := range res.Obs {
				nodes = append(nodes, id)
			}
			sort.Strings(nodes)
			for _, id := range nodes {
				snap := res.Obs[id]
				for _, c := range snap.CounterNames() {
					fmt.Fprintf(h, "%s.%s=%d|", id, c, snap.Counters[c])
				}
			}
			fmt.Fprintf(h, "%v|", res.ServingServer.Values)
		}
	}
	out.digest = h.Sum64()
	return out
}

func (o *paperOutcome) add(res *sim.Result, crashAt time.Duration, lan bool) {
	o.runs++
	f := res.Final
	// The client opens at 1 s and plays until the scenario ends.
	expected := uint64((res.Duration-time.Second)/time.Second) * 30 * 9 / 10
	if f.Displayed < expected*8/10 {
		o.failed++
	}
	if lan {
		o.lanStalls += f.Stalls
	}
	o.iSkipped += f.OverflowDroppedI
	o.stalls += f.Stalls
	o.skipped += f.GapSkipped
	o.due += f.Displayed + f.GapSkipped
	o.opens += res.ClientStats.OpensSent
	if to, ok := takeoverAfter(res.ServingServer, crashAt); ok {
		o.takeover = append(o.takeover, to)
		if lan {
			o.worstLAN = max(o.worstLAN, to)
		} else {
			o.worstWAN = max(o.worstWAN, to)
		}
	} else {
		o.missing++
	}
	for _, snap := range res.Obs {
		for name, v := range snap.Counters {
			o.counters[name] += v
		}
	}
	for _, st := range res.ServerStats {
		o.counters["stats.frames_sent"] += st.FramesSent
		o.counters["stats.video_bytes"] += st.VideoBytes
		o.counters["stats.sync_bytes"] += st.SyncBytes
		o.counters["stats.takeovers"] += st.Takeovers
		o.counters["stats.emergencies"] += st.Emergencies
	}
	o.counters["client.received"] += f.Received
	o.counters["client.displayed"] += f.Displayed
	o.counters["client.late"] += f.Late
	o.counters["client.overflow"] += f.OverflowDropped
	o.counters["client.reopens_stat"] += res.ClientStats.Reopens
	o.counters["client.emergencies_stat"] += res.ClientStats.EmergenciesSent
}

// takeoverAfter reads the serving-server series (sampled every 100 ms):
// the takeover time is from the crash to the first sample showing a live
// server other than the one serving just before the crash.
func takeoverAfter(s *metrics.Series, crashAt time.Duration) (float64, bool) {
	pre := -1.0
	for i, t := range s.Times {
		v := s.Values[i]
		if t < crashAt {
			pre = v
			continue
		}
		if v >= 0 && v != pre {
			return float64(t-crashAt) / float64(time.Millisecond), true
		}
	}
	return 0, false
}

// gate checks the EXPERIMENTS.md shape claims on every run: no LAN display
// stall, no I frame discarded, every session moves off the crashed server,
// and LAN takeover (Table T's claim) under a second. WAN takeover has no
// claim to hold it to; it is reported, not gated.
func (o paperOutcome) gate() string {
	switch {
	case o.lanStalls != 0:
		return fmt.Sprintf("paper: %d LAN display stalls", o.lanStalls)
	case o.iSkipped != 0:
		return fmt.Sprintf("paper: %d I frames discarded", o.iSkipped)
	case o.missing != 0:
		return fmt.Sprintf("paper: %d runs never moved the session off the crashed server", o.missing)
	case o.worstLAN >= 1000:
		return fmt.Sprintf("paper: worst LAN takeover %.0f ms, want < 1 s", o.worstLAN)
	}
	return ""
}

// paperInputs builds the movies the LAN and WAN scenarios of seeds
// first..first+n-1 stream: sim.Run's movie, with the same config and seed,
// and the video packet table its first session builds.
func paperInputs(first int64, n int) {
	for s := first; s < first+int64(n); s++ {
		for _, sc := range []sim.Scenario{sim.LANScenario(s), sim.WANScenario(s)} {
			cfg := sc.Movie
			cfg.Seed = sc.Seed
			mpeg.Generate("feature", cfg).Packets(byte(transport.ChannelVideo))
		}
	}
}

// iteratePaper's set-up is the scenarios' movie generation, timed on its
// own; the timed pass then generates the same movies again inside sim.Run.
func iteratePaper(b *bench, traced bool) (iteration, error) {
	var it iteration
	start := time.Now()
	paperInputs(b.seed, b.size.paperSeeds)
	it.setup = time.Since(start)
	var out paperOutcome
	var err error
	it.run, it.profile, err = timed(traced, func() error {
		out = runPaper(b.seed, b.size.paperSeeds)
		return nil
	})
	if err != nil {
		return it, err
	}
	it.digest, it.gate = out.digest, out.gate()
	it.attempted, it.failed = out.runs, out.failed
	it.skipRatio = ratio(out.skipped, out.due)
	n := float64(out.runs)
	cnt := out.counters
	video := cnt["stats.video_bytes"]
	it.qos = map[string]any{
		"seeds":                 b.size.paperSeeds,
		"runs":                  out.runs,
		"takeover_ms":           summarize(out.takeover, out.missing).json(),
		"worst_lan_takeover_ms": out.worstLAN,
		"worst_wan_takeover_ms": out.worstWAN,
		"stalls_per_viewer":     float64(out.stalls) / n,
		"opens_per_viewer":      float64(out.opens) / n,
		"control_bytes_ratio":   float64(cnt["netsim.delivered_bytes"]-min(video, cnt["netsim.delivered_bytes"])) / float64(max(video, 1)),
		"failed_ratio":          float64(out.failed) / n,
	}
	it.layers = map[string]float64{
		"phase.setup_share":         setupShare(it),
		"netsim.sent":               float64(cnt["netsim.sent"]),
		"netsim.delivered":          float64(cnt["netsim.delivered"]),
		"netsim.dropped":            float64(cnt["netsim.dropped"]),
		"netsim.delivered_bytes":    float64(cnt["netsim.delivered_bytes"]),
		"transport.dispatches":      float64(cnt["netsim.delivered"]),
		"server.frames_sent":        float64(cnt["stats.frames_sent"]),
		"server.video_bytes":        float64(video),
		"server.sync_bytes":         float64(cnt["stats.sync_bytes"]),
		"server.takeovers":          float64(cnt["stats.takeovers"]),
		"server.emergencies":        float64(cnt["stats.emergencies"]),
		"client.frames_received":    float64(cnt["client.received"]),
		"client.displayed":          float64(cnt["client.displayed"]),
		"client.late":               float64(cnt["client.late"]),
		"client.overflow_dropped":   float64(cnt["client.overflow"]),
		"client.reopens":            float64(cnt["client.reopens_stat"]),
		"client.emergencies_sent":   float64(cnt["client.emergencies_stat"]),
		"client.useful_frame_ratio": ratio(cnt["client.displayed"], cnt["client.received"]),
	}
	for _, name := range gcsCounters {
		it.layers[name] = float64(cnt[name])
	}
	return it, nil
}
