package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// cost is what one timed interval spent: wall time, process CPU (user+sys,
// so GC on the second core counts) and heap traffic.
type cost struct {
	wall     time.Duration
	cpu      time.Duration
	allocB   uint64
	mallocs  uint64
	gcCycles uint32
}

type costMark struct {
	wall    time.Time
	cpu     time.Duration
	allocB  uint64
	mallocs uint64
	gc      uint32
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func mark() costMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return costMark{
		wall:    time.Now(),
		cpu:     processCPU(),
		allocB:  ms.TotalAlloc,
		mallocs: ms.Mallocs,
		gc:      ms.NumGC,
	}
}

// since returns the cost accumulated from m to now.
func since(m costMark) cost {
	e := mark()
	return cost{
		wall:     e.wall.Sub(m.wall),
		cpu:      e.cpu - m.cpu,
		allocB:   e.allocB - m.allocB,
		mallocs:  e.mallocs - m.mallocs,
		gcCycles: e.gc - m.gc,
	}
}

// rssSampler records the largest resident set it reads from
// /proc/self/statm, every rssEvery, until stopped. It reads into one
// buffer, so it allocates nothing the alloc metrics would count. Where
// /proc is unavailable the peak falls back to the runtime's total
// reservation.
type rssSampler struct {
	stop chan struct{}
	peak chan float64
}

const rssEvery = 5 * time.Millisecond

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), peak: make(chan float64)}
	statm, _ := os.Open("/proc/self/statm")
	go func() {
		if statm != nil {
			defer statm.Close()
		}
		buf := make([]byte, 128)
		peak := residentMB(statm, buf)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				peak = max(peak, residentMB(statm, buf))
			case <-s.stop:
				s.peak <- max(peak, residentMB(statm, buf))
				return
			}
		}
	}()
	return s
}

// stopMB stops the sampler and returns the largest resident set seen, MiB.
func (s *rssSampler) stopMB() float64 {
	close(s.stop)
	return <-s.peak
}

// residentMB reads the resident set, MiB, from statm's second field
// (resident pages).
func residentMB(statm *os.File, buf []byte) float64 {
	if statm != nil {
		if n, _ := statm.ReadAt(buf, 0); n > 0 {
			field, pages := 0, 0
			for _, c := range buf[:n] {
				switch {
				case c == ' ':
					field++
				case field == 1 && c >= '0' && c <= '9':
					pages = pages*10 + int(c-'0')
				}
				if field > 1 {
					return float64(pages) * float64(os.Getpagesize()) / (1 << 20)
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// median of xs (mean of the middle two for an even count); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// dist summarizes a virtual-time latency sample: the median and the highest
// whole percentile that still has at least ten samples beyond it. Missing
// samples (a viewer that never recovered) count as +Inf, so they miss every
// limit.
type dist struct {
	N       int
	Missing int
	P50     float64
	TailPct int
	Tail    float64
}

func summarize(samples []float64, missing int) dist {
	s := append([]float64(nil), samples...)
	for i := 0; i < missing; i++ {
		s = append(s, math.Inf(1))
	}
	sort.Float64s(s)
	d := dist{N: len(s), Missing: missing}
	if len(s) == 0 {
		return d
	}
	d.P50 = nearestRank(s, 50)
	// Highest p with n·(1−p/100) ≥ 10 samples beyond it; below 20 samples
	// no percentile above the median qualifies.
	d.TailPct = 50
	if n := len(s); n >= 20 {
		p := int(math.Floor(100 * (1 - 10/float64(n))))
		if p > 99 {
			p = 99
		}
		if p > 50 {
			d.TailPct = p
		}
	}
	d.Tail = nearestRank(s, d.TailPct)
	return d
}

// nearestRank returns the p-th percentile of sorted s by the nearest-rank
// rule, so the result is always an observed sample.
func nearestRank(s []float64, p int) float64 {
	k := int(math.Ceil(float64(p) / 100 * float64(len(s))))
	if k < 1 {
		k = 1
	}
	return s[k-1]
}

// jsonFloat maps the +Inf of an unrecovered sample to -1 so the detail line
// stays valid JSON.
func jsonFloat(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return -1
	}
	return v
}

func (d dist) json() map[string]any {
	return map[string]any{
		"n": d.N, "missing": d.Missing, "p50": jsonFloat(d.P50),
		"tail_pct": d.TailPct, "tail": jsonFloat(d.Tail),
	}
}
