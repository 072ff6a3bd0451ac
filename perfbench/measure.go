package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between the closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailPercentile is the highest whole percentile with at least ten samples
// beyond it among n samples, never below the median.
func tailPercentile(n int) float64 {
	q := math.Floor(100 * (1 - 10/float64(n)))
	return math.Max(50, q)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// cpuSeconds is the user plus system CPU time of the process so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// calibrate runs a fixed ALU-plus-allocation probe three times and returns
// the median duration in milliseconds. Its drift between runs is host
// drift: the probe does not depend on the program under test.
func calibrate() float64 {
	var times []float64
	for r := 0; r < 3; r++ {
		start := time.Now()
		h := uint64(14695981039346656037)
		for i := 0; i < 30_000_000; i++ {
			h ^= uint64(i)
			h *= 1099511628211
		}
		keep := make([][]int64, 512)
		for i := 0; i < 300_000; i++ {
			b := make([]int64, 16+i%48)
			b[0] = int64(h) + int64(i)
			keep[i%len(keep)] = b
		}
		calibSink = keep[int(h%uint64(len(keep)))][0]
		times = append(times, float64(time.Since(start).Microseconds())/1000)
	}
	return median(times)
}

var calibSink int64

const (
	heapLiveMetric   = "/gc/heap/live:bytes"
	allocsMetric     = "/gc/heap/allocs:objects"
	allocBytesMetric = "/gc/heap/allocs:bytes"
	gcCyclesMetric   = "/gc/cycles/total:gc-cycles"
	gcCPUMetric      = "/cpu/classes/gc/total:cpu-seconds"
	totalCPUMetric   = "/cpu/classes/total:cpu-seconds"
)

// readMetrics reads the named runtime metrics as float64 values.
func readMetrics(names ...string) []float64 {
	samples := make([]metrics.Sample, len(names))
	for i, n := range names {
		samples[i].Name = n
	}
	metrics.Read(samples)
	out := make([]float64, len(names))
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

// liveHeapMiB forces two collections and returns the live heap in MiB. The
// second one drops what sync.Pool caches kept alive through the first.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	return readMetrics(heapLiveMetric)[0] / (1 << 20)
}

// runtimeCounters is a snapshot of the allocation and GC counters a traced
// op is charged with.
type runtimeCounters struct {
	allocs, allocBytes, gcCycles, gcCPU, totalCPU float64
}

func readRuntimeCounters() runtimeCounters {
	v := readMetrics(allocsMetric, allocBytesMetric, gcCyclesMetric, gcCPUMetric, totalCPUMetric)
	return runtimeCounters{allocs: v[0], allocBytes: v[1], gcCycles: v[2], gcCPU: v[3], totalCPU: v[4]}
}

func (c runtimeCounters) sub(o runtimeCounters) runtimeCounters {
	return runtimeCounters{c.allocs - o.allocs, c.allocBytes - o.allocBytes, c.gcCycles - o.gcCycles,
		c.gcCPU - o.gcCPU, c.totalCPU - o.totalCPU}
}

func (c runtimeCounters) add(o runtimeCounters) runtimeCounters {
	return runtimeCounters{c.allocs + o.allocs, c.allocBytes + o.allocBytes, c.gcCycles + o.gcCycles,
		c.gcCPU + o.gcCPU, c.totalCPU + o.totalCPU}
}

// heapSampler samples the live heap (what the last GC cycle found
// reachable) every millisecond, or as often as the scheduler runs it when
// the op holds the only P; reading the metric does not stop the world. The
// runtime updates it at the end of every cycle, which under these workloads
// happens every few milliseconds.
type heapSampler struct {
	done    chan struct{}
	wg      sync.WaitGroup
	samples []float64
}

func startHeapSampler() *heapSampler {
	s := &heapSampler{done: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		sample := []metrics.Sample{{Name: heapLiveMetric}}
		for {
			metrics.Read(sample)
			s.samples = append(s.samples, float64(sample[0].Value.Uint64()))
			select {
			case <-s.done:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop stops the sampler, waits for it and returns the samples in bytes.
func (s *heapSampler) stop() []float64 {
	close(s.done)
	s.wg.Wait()
	return s.samples
}
