package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/gcs"
	"repro/internal/mpeg"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/transport"
)

// The scale_failover timeline, in virtual time after the 2 s convergence:
// viewer i Watches at i·arrivals/N, one ring owner crashes at crashAt, and
// the run ends when every title has played out plus a drain margin.
const (
	scaleReplicas   = 2
	scaleMovieLen   = 10 * time.Second
	scaleConverge   = 2 * time.Second
	scaleArrivals   = 2 * time.Second
	scaleCrashAt    = 5 * time.Second
	scaleEnd        = scaleArrivals + scaleMovieLen + 2*time.Second
	scalePollStep   = 10 * time.Millisecond
	scaleRecoverCap = 6 * time.Second // failover polling stops here
)

type scaleSize struct {
	servers, viewers int
}

// scaleCluster is a two-tier cluster matching the scale table's trial: one
// title per server stocked on its Replicas ring owners, leased viewers with
// ring-ordered anycast, shared gcs timers, striped egress with broadcast
// fan-out, 1 Gbps egress per server, LAN links.
type scaleCluster struct {
	clk     *clock.Virtual
	net     *netsim.Network
	ring    *placement.Ring
	ids     []string
	titles  []string
	servers []*server.Server
	tr      *tracer         // traced runs only
	regs    []*obs.Registry // traced runs only
	network transport.Network
}

func newScaleCluster(seed int64, size scaleSize, tr *tracer) (*scaleCluster, error) {
	clk := clock.NewVirtual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	c := &scaleCluster{
		clk:  clk,
		net:  netsim.New(clk, seed, netsim.LAN()),
		ring: placement.New(placement.DefaultVNodes),
		tr:   tr,
	}
	c.network = c.net
	if tr != nil {
		c.network = newTracedNet(c.net, tr)
	}
	c.ids = make([]string, size.servers)
	catalogs := make(map[string]*store.Catalog, size.servers)
	for i := range c.ids {
		c.ids[i] = fmt.Sprintf("server-%02d", i)
		c.ring.Add(c.ids[i])
		c.net.SetEgressLimit(transport.Addr(c.ids[i]), 1000*1000*1000/8)
		catalogs[c.ids[i]] = store.NewCatalog()
	}
	c.titles = make([]string, size.servers)
	for i := range c.titles {
		c.titles[i] = fmt.Sprintf("title-%02d", i)
		movie := mpeg.Generate(c.titles[i], mpeg.StreamConfig{Duration: scaleMovieLen, Seed: seed + int64(i)})
		// Build the video packet table here, not at the title's first
		// session, so movie generation is all set-up.
		movie.Packets(byte(transport.ChannelVideo))
		for _, owner := range c.ring.LookupN(c.titles[i], scaleReplicas) {
			catalogs[owner].Add(movie)
		}
	}
	for _, id := range c.ids {
		cfg := server.Config{
			ID:              id,
			Clock:           clk,
			Network:         c.network,
			Catalog:         catalogs[id],
			Peers:           c.ids,
			Placement:       c.ring,
			Replicas:        scaleReplicas,
			GCS:             gcs.Config{SharedTimers: true},
			StripedEgress:   true,
			BroadcastFanout: true,
		}
		if tr != nil {
			reg := obs.NewRegistry(id, clk.Now)
			c.regs = append(c.regs, reg)
			cfg.Obs = reg
		}
		srv, err := server.New(cfg)
		if err != nil {
			c.stop()
			return nil, fmt.Errorf("scale: new %s: %w", id, err)
		}
		c.servers = append(c.servers, srv)
		if err := srv.Start(); err != nil {
			c.stop()
			return nil, fmt.Errorf("scale: start %s: %w", id, err)
		}
	}
	clk.Advance(scaleConverge)
	return c, nil
}

func (c *scaleCluster) stop() {
	for _, s := range c.servers {
		s.Stop()
	}
}

// gcsCounts sums the gcs.* counters of the servers' registries.
func (c *scaleCluster) gcsCounts() map[string]uint64 {
	sum := make(map[string]uint64, len(gcsCounters))
	for _, reg := range c.regs {
		snap := reg.Snapshot()
		for _, name := range gcsCounters {
			sum[name] += snap.Counters[name]
		}
	}
	return sum
}

// scaleOutcome is one trial's result. digest covers every deterministic
// output (per-viewer counters and stats, network and server totals), so two
// runs of one seed must agree on it exactly.
type scaleOutcome struct {
	viewers     int
	affected    int
	crashed     string
	failed      int // viewers below 80% of their expected frames
	unhealthy   int // unaffected viewers below 80%
	unrecovered int // affected viewers that never received another frame
	startup     dist
	takeover    dist
	stalls      uint64
	skipped     uint64
	due         uint64
	opens       uint64
	clockEvents uint64
	net         netsim.Stats      // over the trial only, not the convergence
	gcs         map[string]uint64 // gcs.* counters over the trial; traced runs only
	srv         server.Stats
	cli         clientTotals
	digest      uint64
	phases      map[string]time.Duration
}

type clientTotals struct {
	received, displayed, late, overflow, reopens, emergencies uint64
}

// runScale drives one trial on a converged cluster: arrivals with startup
// sampling, steady play, the crash of title-00's primary ring owner with
// takeover sampling, then play-out. It stops the cluster's viewers and
// servers before returning. Every count it reports covers the trial only:
// the network, registry and tracer counts of the convergence are left out.
func runScale(c *scaleCluster, n int) (scaleOutcome, error) {
	defer c.stop()
	out := scaleOutcome{viewers: n, phases: make(map[string]time.Duration)}
	clk := c.clk
	t0 := clk.Now()
	events0 := clk.Executed()
	net0 := c.net.Stats()
	gcs0 := c.gcsCounts()
	if c.tr != nil {
		c.tr.reset()
	}
	elapsed := func() time.Duration { return clk.Now().Sub(t0) }
	phase := ""
	advanceTo := func(at time.Duration) {
		if d := at - elapsed(); d > 0 {
			w := time.Now()
			clk.Advance(d)
			out.phases[phase] += time.Since(w)
		}
	}

	viewers := make([]*client.Client, 0, n)
	defer func() {
		for _, v := range viewers {
			v.Close()
		}
	}()

	// Arrivals: viewer i Watches at exactly i·gap. Every pollStep, viewers
	// still waiting for their first displayed frame are polled.
	phase = "arrivals"
	gap := scaleArrivals / time.Duration(n)
	watchAt := make([]time.Duration, n)
	var pending []int
	var startups []float64
	nextPoll := scalePollStep
	poll := func(now time.Duration) {
		kept := pending[:0]
		for _, i := range pending {
			if viewers[i].Counters().Displayed > 0 {
				startups = append(startups, float64(now-watchAt[i])/float64(time.Millisecond))
			} else {
				kept = append(kept, i)
			}
		}
		pending = kept
	}
	for i := 0; i < n; i++ {
		at := time.Duration(i) * gap
		for nextPoll <= at {
			advanceTo(nextPoll)
			poll(nextPoll)
			nextPoll += scalePollStep
		}
		advanceTo(at)
		v, err := client.New(client.Config{
			ID:        fmt.Sprintf("viewer-%05d", i),
			Clock:     clk,
			Network:   c.network,
			Servers:   c.ids,
			Lease:     true,
			Placement: c.ring,
		})
		if err != nil {
			return out, fmt.Errorf("scale: new viewer %d: %w", i, err)
		}
		viewers = append(viewers, v)
		if err := v.Watch(c.titles[i%len(c.titles)]); err != nil {
			return out, fmt.Errorf("scale: viewer %d watch: %w", i, err)
		}
		watchAt[i] = at
		pending = append(pending, i)
	}
	phase = "steady"
	for len(pending) > 0 && nextPoll < scaleCrashAt {
		advanceTo(nextPoll)
		poll(nextPoll)
		nextPoll += scalePollStep
	}
	advanceTo(scaleCrashAt)
	out.startup = summarize(startups, len(pending))

	// Failover: crash the primary owner of title-00, remembering whom it
	// served just before, and poll those viewers until each receives a
	// frame again. The baseline is taken one step after the crash so
	// frames already in flight from the dead node do not count.
	phase = "failover"
	out.crashed = c.ring.LookupN(c.titles[0], scaleReplicas)[0]
	index := make(map[string]int, n)
	for i, v := range viewers {
		index[v.ID()] = i
	}
	var affected []int
	for _, s := range c.servers {
		if s.ID() != out.crashed {
			continue
		}
		for _, id := range s.ActiveSessions() {
			if i, ok := index[id]; ok {
				affected = append(affected, i)
			}
		}
	}
	sort.Ints(affected)
	out.affected = len(affected)
	isAffected := make([]bool, n)
	for _, i := range affected {
		isAffected[i] = true
	}
	c.net.Crash(transport.Addr(out.crashed))
	advanceTo(scaleCrashAt + scalePollStep)
	baseOf := make(map[int]uint64, len(affected))
	for _, i := range affected {
		baseOf[i] = viewers[i].Counters().Received
	}
	waiting := append([]int(nil), affected...)
	var takeovers []float64
	for at := scaleCrashAt + 2*scalePollStep; len(waiting) > 0 && at <= scaleCrashAt+scaleRecoverCap; at += scalePollStep {
		advanceTo(at)
		kept := waiting[:0]
		for _, i := range waiting {
			if viewers[i].Counters().Received > baseOf[i] {
				takeovers = append(takeovers, float64(at-scaleCrashAt)/float64(time.Millisecond))
			} else {
				kept = append(kept, i)
			}
		}
		waiting = kept
	}
	out.unrecovered = len(waiting)
	out.takeover = summarize(takeovers, len(waiting))

	phase = "drain"
	advanceTo(scaleEnd)
	out.clockEvents = clk.Executed() - events0

	// Harvest.
	expected := uint64(scaleMovieLen/time.Second) * 30 * 9 / 10
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for i, v := range viewers {
		cnt := v.Counters()
		st := v.Stats()
		for _, x := range []uint64{cnt.Received, cnt.Displayed, cnt.Late, cnt.OverflowDropped, cnt.OverflowDroppedI,
			cnt.GapSkipped, cnt.Stalls, cnt.MaxStallRun, st.OpensSent, st.OpenRetries, st.OpenRefusals,
			st.Reopens, st.FlowSent, st.EmergenciesSent, st.VCRSent} {
			put(x)
		}
		if cnt.Displayed < expected*8/10 {
			out.failed++
			if !isAffected[i] {
				out.unhealthy++
			}
		}
		out.stalls += cnt.Stalls
		out.skipped += cnt.GapSkipped
		out.due += cnt.Displayed + cnt.GapSkipped
		out.opens += st.OpensSent
		out.cli.received += cnt.Received
		out.cli.displayed += cnt.Displayed
		out.cli.late += cnt.Late
		out.cli.overflow += cnt.OverflowDropped
		out.cli.reopens += st.Reopens
		out.cli.emergencies += st.EmergenciesSent
	}
	for _, s := range c.servers {
		st := s.Stats()
		for _, x := range []uint64{st.FramesSent, st.VideoBytes, st.SyncMessages, st.SyncBytes, st.SessionsOpened,
			st.Takeovers, st.Releases, st.Emergencies, st.FramesThinned} {
			put(x)
		}
		out.srv.FramesSent += st.FramesSent
		out.srv.VideoBytes += st.VideoBytes
		out.srv.SyncBytes += st.SyncBytes
		out.srv.Takeovers += st.Takeovers
		out.srv.Emergencies += st.Emergencies
	}
	net := c.net.Stats()
	out.net = netsim.Stats{
		Sent:      net.Sent - net0.Sent,
		Delivered: net.Delivered - net0.Delivered,
		Dropped:   net.Dropped - net0.Dropped,
		Bytes:     net.Bytes - net0.Bytes,
	}
	out.gcs = c.gcsCounts()
	for name, v := range gcs0 {
		out.gcs[name] -= v
	}
	for _, x := range []uint64{out.net.Sent, out.net.Delivered, out.net.Dropped, out.net.Bytes, out.clockEvents} {
		put(x)
	}
	out.digest = h.Sum64()
	return out, nil
}

// gate reports why a trial's outputs are wrong, or "" when they hold:
// every viewer the crash did not touch stays healthy and every affected
// viewer resumes.
func (o scaleOutcome) gate() string {
	switch {
	case o.affected == 0:
		return "scale: the crashed owner served no viewer"
	case o.unhealthy > 0:
		return fmt.Sprintf("scale: %d viewers not on the crashed owner fell below 80%% of expected frames", o.unhealthy)
	case o.unrecovered > 0:
		return fmt.Sprintf("scale: %d of %d affected viewers never resumed", o.unrecovered, o.affected)
	case o.startup.Missing > 0:
		return fmt.Sprintf("scale: %d viewers never displayed a frame before the crash", o.startup.Missing)
	}
	return ""
}

func iterateScale(b *bench, traced bool) (iteration, error) {
	var it iteration
	var tr *tracer
	if traced {
		tr = newTracer(64)
	}
	start := time.Now()
	c, err := newScaleCluster(b.seed, b.size.scale, tr)
	it.setup = time.Since(start)
	if err != nil {
		return it, err
	}
	var out scaleOutcome
	it.run, it.profile, err = timed(traced, func() error {
		var err error
		out, err = runScale(c, b.size.scale.viewers)
		return err
	})
	if err != nil {
		return it, err
	}
	it.digest, it.gate = out.digest, out.gate()
	it.attempted, it.failed = out.viewers, out.failed
	it.skipRatio = ratio(out.skipped, out.due)
	n := float64(out.viewers)
	it.qos = map[string]any{
		"servers":           b.size.scale.servers,
		"viewers":           out.viewers,
		"crashed":           out.crashed,
		"affected":          out.affected,
		"startup_ms":        out.startup.json(),
		"takeover_ms":       out.takeover.json(),
		"stalls_per_viewer": float64(out.stalls) / n,
		"opens_per_viewer":  float64(out.opens) / n,
		"failed_ratio":      float64(out.failed) / n,
	}
	run := it.run.wall.Seconds()
	setup := it.setup.Seconds()
	it.layers = map[string]float64{
		"clock.events":              float64(out.clockEvents),
		"phase.setup_share":         setupShare(it),
		"netsim.sent":               float64(out.net.Sent),
		"netsim.delivered":          float64(out.net.Delivered),
		"netsim.dropped":            float64(out.net.Dropped),
		"netsim.delivered_bytes":    float64(out.net.Bytes),
		"server.frames_sent":        float64(out.srv.FramesSent),
		"server.video_bytes":        float64(out.srv.VideoBytes),
		"server.sync_bytes":         float64(out.srv.SyncBytes),
		"server.takeovers":          float64(out.srv.Takeovers),
		"server.emergencies":        float64(out.srv.Emergencies),
		"client.frames_received":    float64(out.cli.received),
		"client.displayed":          float64(out.cli.displayed),
		"client.late":               float64(out.cli.late),
		"client.overflow_dropped":   float64(out.cli.overflow),
		"client.reopens":            float64(out.cli.reopens),
		"client.emergencies_sent":   float64(out.cli.emergencies),
		"client.useful_frame_ratio": ratio(out.cli.displayed, out.cli.received),
	}
	for name, d := range out.phases {
		it.layers["phase."+name+"_share"] = d.Seconds() / (setup + run)
	}
	if tr == nil {
		return it, nil
	}
	it.layers["netsim.batch_calls"] = float64(tr.batchCalls)
	it.layers["netsim.batch_fanout"] = ratio(tr.batchDsts, tr.batchCalls)
	it.layers["netsim.send_share"] = tr.sendTime.Seconds() / run
	it.layers["server.recv_share"] = tr.serverSelf.Seconds() / run
	it.layers["client.recv_share"] = tr.clientSelf.Seconds() / run
	it.layers["transport.dispatches"] = float64(tr.dispatches)
	it.layers["wire.control_bytes_ratio"] = tr.controlBytesRatio()
	for k, name := range kindNames {
		it.layers["wire.packets."+name] = float64(tr.sentPkts[k])
	}
	for _, name := range gcsCounters {
		it.layers[name] = float64(out.gcs[name])
	}
	it.spans = tr.spans
	return it, nil
}

var gcsCounters = []string{"gcs.view_changes", "gcs.flush_rounds", "gcs.retransmissions", "gcs.naks_sent", "gcs.fd_suspicions"}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
