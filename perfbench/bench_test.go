package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/mpeg"
	"repro/internal/netsim"
	"repro/internal/transport"
)

// benchmarkFile is the subset of ../BENCHMARK.json the harness must agree
// with.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestSmokeWorkloads runs every workload at its tiny size, untraced and
// traced, and checks the result line against BENCHMARK.json: a later API
// change that breaks the harness fails here in seconds.
func TestSmokeWorkloads(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if workloads[i].name != w.Name {
			t.Fatalf("workload %d: BENCHMARK.json %q, harness %q", i, w.Name, workloads[i].name)
		}
	}
	for _, w := range bf.Workloads {
		for _, trace := range []string{"0", "1"} {
			var out bytes.Buffer
			err := run([]string{"--workload", w.Name, "--seed", "3", "--seconds", "1", "--trace", trace, "--smoke"}, &out)
			if err != nil {
				t.Fatalf("%s trace=%s: %v", w.Name, trace, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				t.Fatalf("%s trace=%s: last line: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := bf.EndToEnd
			if trace == "1" {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, BENCHMARK.json lists %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%s: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%s: metric %s unit %q, BENCHMARK.json %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case trace == "0" && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestTracedScaleMatchesUntraced checks the network wrapper is
// observation-only: a traced scale trial's deterministic outputs (every
// viewer's counters and stats, netsim.Stats, server stats) equal the
// untraced trial's, and the traffic went through the batched and
// resolved-reference paths the untraced run takes.
func TestTracedScaleMatchesUntraced(t *testing.T) {
	size := smokeSizes.scale
	trial := func(tr *tracer) scaleOutcome {
		c, err := newScaleCluster(5, size, tr)
		if err != nil {
			t.Fatal(err)
		}
		out, err := runScale(c, size.viewers)
		if err != nil {
			t.Fatal(err)
		}
		if g := out.gate(); g != "" {
			t.Fatal(g)
		}
		return out
	}
	plain := trial(nil)
	tr := newTracer(4)
	traced := trial(tr)
	if plain.digest != traced.digest || plain.net != traced.net || plain.srv != traced.srv {
		t.Fatalf("traced run diverged: digest %x vs %x, net %+v vs %+v, server %+v vs %+v",
			plain.digest, traced.digest, plain.net, traced.net, plain.srv, traced.srv)
	}
	if tr.batchCalls == 0 {
		t.Error("no SendStableRefBatch call reached the wrapper: broadcast fan-out fell off its fast path")
	}
	if got, want := tr.sentPkts[kindVideo], traced.srv.FramesSent; got != want {
		t.Errorf("wrapper saw %d video packets, servers sent %d frames", got, want)
	}
	if tr.dispatches != traced.net.Delivered {
		t.Errorf("wrapper saw %d deliveries, netsim delivered %d", tr.dispatches, traced.net.Delivered)
	}
	if len(tr.spans) == 0 {
		t.Error("no spans kept for sampled viewers")
	}
}

// TestTracedEndpointForwardsOptionalInterfaces checks the mux over a
// traced endpoint resolves every fast path it resolves over netsim.
func TestTracedEndpointForwardsOptionalInterfaces(t *testing.T) {
	clk := clock.NewVirtual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	tn := newTracedNet(netsim.New(clk, 1, netsim.LAN()), newTracer(1))
	a, err := tn.NewEndpoint("server-00")
	if err != nil {
		t.Fatal(err)
	}
	b, err := tn.NewEndpoint("viewer-00000")
	if err != nil {
		t.Fatal(err)
	}
	var got int
	transport.NewMux(b).Channel(transport.ChannelVideo).SetHandler(func(transport.Addr, []byte) { got++ })
	ch := transport.NewMux(a).Channel(transport.ChannelVideo)
	ref := ch.(transport.RefResolver).ResolveAddr("viewer-00000")
	if ref == transport.NoAddrRef {
		t.Fatal("ResolveAddr not forwarded")
	}
	pkt := []byte{byte(transport.ChannelVideo), 3, 0, 0}
	if err := ch.(transport.PreframedRefSender).SendPreframedRef(ref, pkt); err != nil {
		t.Fatalf("SendStableRef not forwarded: %v", err)
	}
	batch := ch.(transport.PreframedRefBatchSender)
	if err := batch.SendPreframedRefBatch([]transport.AddrRef{ref, ref}, [][]byte{pkt, pkt}); err != nil {
		t.Fatalf("SendStableRefBatch not forwarded: %v", err)
	}
	clk.Advance(time.Second)
	if got != 3 {
		t.Fatalf("delivered %d packets, want 3", got)
	}
}

func TestClassify(t *testing.T) {
	direct := func(kind byte) []byte { return []byte{1, 2, 0, 0, 0, 1, kind} }
	anycastOpen := []byte{1, 3, 0, 2, 'g', 'x', 0, 0, 0, 1, 1}
	for _, c := range []struct {
		p    []byte
		want int
	}{
		{[]byte{2, 3, 9}, kindVideo},
		{[]byte{1, 1}, kindGCSHeartbeat},
		{[]byte{1, 4, 0}, kindGCSMcast},
		{[]byte{1, 6, 0}, kindGCSAck},
		{direct(0x11), kindLeaseRenew},
		{direct(0x12), kindLeaseAck},
		{direct(2), kindOpen},
		{direct(4), kindFlow},
		{anycastOpen, kindOpen},
		{[]byte{1}, kindOther},
		{[]byte{3, 1}, kindOther},
	} {
		if got := classify(c.p); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.p, kindNames[got], kindNames[c.want])
		}
	}
}

// TestCPUShares profiles CPU spent in a repro/internal package and checks
// the attribution charges it there and the shares sum to one.
func TestCPUShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	for start := time.Now(); time.Since(start) < 400*time.Millisecond; {
		mpeg.Generate("t", mpeg.StreamConfig{Duration: 10 * time.Second})
	}
	pprof.StopCPUProfile()
	shares, cpu, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if cpu <= 0 {
		t.Skip("profile recorded no samples")
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	if shares["mpeg"] < 0.5 {
		t.Errorf("mpeg share %.2f, want most of the profile (%v)", shares["mpeg"], shares)
	}
}

func TestSummarize(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	d := summarize(xs, 0)
	if d.P50 != 50 || d.TailPct != 90 || d.Tail != 90 {
		t.Errorf("got %+v, want p50 50 and p90 90", d)
	}
	if d := summarize(xs[:95], 5); d.N != 100 || d.Missing != 5 || d.Tail != 90 {
		t.Errorf("95 samples + 5 missing: %+v, want n 100 and p90 90", d)
	}
	if d := summarize(xs[:80], 20); !math.IsInf(d.Tail, 1) {
		t.Errorf("20 missing of 100: p%d = %v, want +Inf", d.TailPct, d.Tail)
	}
	if d := summarize(xs[:10], 0); d.TailPct != 50 {
		t.Errorf("10 samples: tail percentile %d, want 50", d.TailPct)
	}
}

// TestResidentMB checks the resident-set reader parses statm and allocates
// nothing, so sampling it does not show in alloc_mb.
func TestResidentMB(t *testing.T) {
	statm, err := os.Open("/proc/self/statm")
	if err != nil {
		t.Skip("no /proc/self/statm")
	}
	defer statm.Close()
	buf := make([]byte, 128)
	if mb := residentMB(statm, buf); mb <= 0 || mb > 1<<20 {
		t.Fatalf("resident set %v MiB", mb)
	}
	if a := testing.AllocsPerRun(100, func() { residentMB(statm, buf) }); a != 0 {
		t.Errorf("residentMB allocates %v times per call", a)
	}
}
