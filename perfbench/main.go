// Command perfbench is the repository benchmark: it drives the simulated
// VoD service through its exported packages on three workloads and prints
// one JSON result line. See README.md for the workloads, the metrics and
// how to run it; run.py builds and invokes it.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/sim"
)

// sizes fixes the input of every workload. The full sizes are the
// benchmark; the smoke sizes exist so the package's tests exercise every
// workload in a second.
type sizes struct {
	scale      scaleSize
	paperSeeds int
	chaosSeeds int
}

var (
	fullSizes  = sizes{scale: scaleSize{servers: 16, viewers: 2000}, paperSeeds: 40, chaosSeeds: 80}
	smokeSizes = sizes{scale: scaleSize{servers: 4, viewers: 80}, paperSeeds: 1, chaosSeeds: 2}
)

// iteration is one set-up followed by one timed pass over the workload's
// fixed input.
type iteration struct {
	setup     time.Duration // wall time of the set-up
	peakRSS   float64       // largest resident set sampled over set-up and run, MiB
	run       cost
	digest    uint64
	gate      string
	attempted int
	failed    int
	skipRatio float64 // skipped frames over frames due, exact for the seed
	qos       map[string]any
	layers    map[string]float64 // per-layer counters; complete only when traced
	profile   []byte             // CPU profile of the timed pass, when traced
	spans     []span
}

type workload struct {
	name    string
	iterate func(b *bench, traced bool) (iteration, error)
}

var workloads = []workload{
	{"scale_failover", iterateScale},
	{"paper_figs", iteratePaper},
	{"chaos_sweep", iterateChaos},
}

// minIters is the fewest iterations a run makes, whatever its budget:
// every time metric is a median over them.
const minIters = 5

// setupShare is the set-up's share of set-up plus timed pass.
func setupShare(it iteration) float64 {
	return it.setup.Seconds() / (it.setup + it.run.wall).Seconds()
}

type bench struct {
	seed int64
	size sizes
}

// timed runs f as the measured section, under a CPU profile when traced.
func timed(traced bool, f func() error) (cost, []byte, error) {
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return cost{}, nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	m := mark()
	err := f()
	c := since(m)
	if traced {
		pprof.StopCPUProfile()
	}
	return c, prof.Bytes(), err
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	smoke    bool
	commit   string
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "scale_failover, paper_figs or chaos_sweep")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 10, "measurement budget in wall seconds")
	fs.IntVar(&o.trace, "trace", 0, "1: traced run reporting per-layer metrics")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny inputs, for the package tests")
	fs.StringVar(&o.commit, "commit", "unknown", "commit or source digest to stamp on the result")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			wl = &workloads[i]
		}
	}
	switch {
	case wl == nil:
		return fmt.Errorf("unknown workload %q", o.workload)
	case o.seconds < 1:
		return errors.New("--seconds must be at least 1")
	case o.trace != 0 && o.trace != 1:
		return errors.New("--trace must be 0 or 1")
	}
	sim.SetParallelism(1)
	b := &bench{seed: o.seed, size: fullSizes}
	if o.smoke {
		b.size = smokeSizes
	}
	res, detail, err := measure(b, wl, o)
	if err != nil {
		return err
	}
	detail["stamp"] = stamp(o)
	if err := json.NewEncoder(stdout).Encode(detail); err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(res)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// measure repeats the workload until the budget is spent (at least
// minIters times) and reduces the iterations to medians. A traced run
// alternates untraced and traced iterations: the untraced ones give the
// overhead baseline.
func measure(b *bench, wl *workload, o options) (result, map[string]any, error) {
	budget := time.Duration(o.seconds) * time.Second
	start := time.Now()
	var plain, traced []iteration
	for i := 0; ; i++ {
		tr := o.trace == 1 && i%2 == 1
		// Start every iteration from a collected heap returned to the OS,
		// so no iteration pays for, or keeps resident, its predecessor's
		// garbage.
		debug.FreeOSMemory()
		rss := startRSS()
		it, err := wl.iterate(b, tr)
		it.peakRSS = rss.stopMB()
		if err != nil {
			return result{}, nil, err
		}
		if tr {
			traced = append(traced, it)
		} else {
			plain = append(plain, it)
		}
		spent := time.Since(start)
		if i+1 >= minIters && spent+spent/time.Duration(i+1) > budget {
			break
		}
	}

	all := append(append([]iteration(nil), plain...), traced...)
	first := all[0]
	res := result{Correct: true, Attempted: first.attempted, Failed: first.failed, Metrics: map[string]metric{}}
	gates := []string{}
	for _, it := range all {
		if it.gate != "" {
			gates = append(gates, it.gate)
		}
		if it.digest != first.digest {
			gates = append(gates, fmt.Sprintf("determinism: outputs differ between two runs of seed %d (%016x vs %016x)", b.seed, first.digest, it.digest))
		}
	}
	if len(gates) > 0 {
		res.Correct = false
		for _, g := range gates {
			fmt.Fprintln(os.Stderr, "perfbench: gate failed:", g)
		}
	}

	detail := map[string]any{
		"workload":     wl.name,
		"seed":         b.seed,
		"iterations":   len(plain),
		"traced_iters": len(traced),
		"digest":       fmt.Sprintf("%016x", first.digest),
		"gates_failed": gates,
		"qos":          first.qos,
		"walls_s":      pick(all, func(it iteration) float64 { return it.run.wall.Seconds() }),
		"setups_s":     pick(all, func(it iteration) float64 { return it.setup.Seconds() }),
		"peaks_rss_mb": pick(all, func(it iteration) float64 { return it.peakRSS }),
	}

	if o.trace == 0 {
		set := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
		set("wall_s", "s", median(pick(plain, func(it iteration) float64 { return it.run.wall.Seconds() })))
		set("cpu_s", "s", median(pick(plain, func(it iteration) float64 { return it.run.cpu.Seconds() })))
		set("setup_s", "s", median(pick(plain, func(it iteration) float64 { return it.setup.Seconds() })))
		set("alloc_mb", "MB", median(pick(plain, func(it iteration) float64 { return float64(it.run.allocB) / (1 << 20) })))
		set("peak_rss_mb", "MB", median(pick(plain, func(it iteration) float64 { return it.peakRSS })))
		set("skipped_frame_ratio", "ratio", first.skipRatio)
		return res, detail, nil
	}

	last := traced[len(traced)-1]
	layers := last.layers
	detail["spans_kept"] = len(last.spans)
	shares, profCPU, err := cpuShares(last.profile)
	if err != nil {
		return result{}, nil, err
	}
	for k, v := range shares {
		layers["cpu_share."+k] = v
	}
	layers["profile.cpu_s"] = profCPU
	layers["runtime.allocs"] = float64(last.run.mallocs)
	layers["runtime.gc_cycles"] = float64(last.run.gcCycles)
	plainWall := median(pick(plain, func(it iteration) float64 { return it.run.wall.Seconds() }))
	tracedWall := median(pick(traced, func(it iteration) float64 { return it.run.wall.Seconds() }))
	layers["tracing_overhead_ratio"] = tracedWall / plainWall
	for _, name := range perLayerNames {
		v, ok := layers[name]
		if !ok {
			v = 0 // the layer is not reachable through this workload's API
		}
		res.Metrics[name] = metric{v, perLayerUnit(name)}
	}
	return res, detail, nil
}

func pick(its []iteration, f func(iteration) float64) []float64 {
	out := make([]float64, len(its))
	for i, it := range its {
		out[i] = f(it)
	}
	return out
}

// perLayerNames lists every per-layer metric in BENCHMARK.json order.
var perLayerNames = func() []string {
	names := []string{
		"clock.events",
		"phase.setup_share", "phase.arrivals_share", "phase.steady_share", "phase.failover_share", "phase.drain_share",
		"netsim.sent", "netsim.delivered", "netsim.dropped", "netsim.delivered_bytes",
		"netsim.batch_calls", "netsim.batch_fanout", "netsim.send_share",
		"transport.dispatches",
	}
	for _, k := range kindNames {
		names = append(names, "wire.packets."+k)
	}
	names = append(names,
		"wire.control_bytes_ratio",
		"server.frames_sent", "server.video_bytes", "server.sync_bytes", "server.takeovers", "server.emergencies", "server.recv_share",
		"client.frames_received", "client.displayed", "client.late", "client.overflow_dropped", "client.reopens",
		"client.emergencies_sent", "client.useful_frame_ratio", "client.recv_share",
		"gcs.view_changes", "gcs.flush_rounds", "gcs.retransmissions", "gcs.naks_sent", "gcs.fd_suspicions",
		"runtime.allocs", "runtime.gc_cycles", "profile.cpu_s", "tracing_overhead_ratio",
	)
	for _, b := range cpuBuckets {
		names = append(names, "cpu_share."+b)
	}
	return names
}()

func perLayerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_bytes"):
		return "bytes"
	case name == "profile.cpu_s":
		return "s"
	case strings.HasSuffix(name, "_share"), strings.HasSuffix(name, "_ratio"),
		strings.HasPrefix(name, "cpu_share."), name == "netsim.batch_fanout":
		return "ratio"
	}
	return "count"
}

// stamp identifies the code and machine a result came from, so results
// from different machines are never compared as equal.
func stamp(o options) map[string]any {
	return map[string]any{
		"commit":     o.commit,
		"seed":       o.seed,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"smoke":      o.smoke,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
