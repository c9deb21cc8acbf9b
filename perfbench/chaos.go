package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/chaos"
	"repro/internal/mpeg"
	"repro/internal/transport"
)

// chaosOutcome aggregates one sweep's reports.
type chaosOutcome struct {
	seeds      int
	violations []string // "seed N: ..." for every violated invariant
	failed     int      // seeds with any violation
	displayed  uint64
	skipped    uint64
	stalls     uint64
	reopens    uint64
	takeovers  uint64
	digest     uint64
}

// runChaos sweeps seeds first..first+n-1 on one worker.
func runChaos(first int64, n int) (chaosOutcome, error) {
	reports, _, err := chaos.Sweep(context.Background(), first, n, 1, nil, nil)
	if err != nil {
		return chaosOutcome{}, fmt.Errorf("chaos sweep: %w", err)
	}
	out := chaosOutcome{seeds: len(reports)}
	h := fnv.New64a()
	for _, r := range reports {
		fmt.Fprintf(h, "%d|%d|%d|%d|%d|%d|%t|%d|%q|", r.Seed, r.Displayed, r.GapSkipped, r.Stalls,
			r.Reopens, r.Takeovers, r.Finished, r.Owners, r.Violations)
		if !r.OK() {
			out.failed++
			for _, v := range r.Violations {
				out.violations = append(out.violations, fmt.Sprintf("seed %d: %s", r.Seed, v))
			}
		}
		out.displayed += r.Displayed
		out.skipped += r.GapSkipped
		out.stalls += r.Stalls
		out.reopens += r.Reopens
		out.takeovers += r.Takeovers
	}
	out.digest = h.Sum64()
	return out, nil
}

// gate requires Report.OK() for every seed.
func (o chaosOutcome) gate() string {
	if o.failed == 0 {
		return ""
	}
	return fmt.Sprintf("chaos: %d of %d seeds violated an invariant (first: %s)", o.failed, o.seeds, o.violations[0])
}

// chaosInputs builds the inputs the sweep of seeds first..first+n-1 builds
// for each seed: its fault schedule, the movie its scenario streams
// (sim.Run's default stream, seeded by the seed) and the video packet table
// its first session builds.
func chaosInputs(first int64, n int) {
	for s := first; s < first+int64(n); s++ {
		chaos.NewPlan(s, chaos.Config{})
		mpeg.Generate("feature", mpeg.StreamConfig{Seed: s}).Packets(byte(transport.ChannelVideo))
	}
}

// iterateChaos's set-up is the sweep's input building, timed on its own;
// the timed sweep then builds the same inputs again as part of its run.
func iterateChaos(b *bench, traced bool) (iteration, error) {
	var it iteration
	start := time.Now()
	chaosInputs(b.seed, b.size.chaosSeeds)
	it.setup = time.Since(start)
	var out chaosOutcome
	var err error
	it.run, it.profile, err = timed(traced, func() error {
		var err error
		out, err = runChaos(b.seed, b.size.chaosSeeds)
		return err
	})
	if err != nil {
		return it, err
	}
	it.digest, it.gate = out.digest, out.gate()
	it.attempted, it.failed = out.seeds, out.failed
	it.skipRatio = ratio(out.skipped, out.displayed+out.skipped)
	n := float64(out.seeds)
	it.qos = map[string]any{
		"seeds":              out.seeds,
		"stalls_per_viewer":  float64(out.stalls) / n,
		"reopens_per_viewer": float64(out.reopens) / n,
		"failed_ratio":       float64(out.failed) / n,
	}
	it.layers = map[string]float64{
		"phase.setup_share": setupShare(it),
		"server.takeovers":  float64(out.takeovers),
		"client.displayed":  float64(out.displayed),
		"client.reopens":    float64(out.reopens),
	}
	return it, nil
}
