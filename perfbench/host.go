package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// host records the noise diagnostics printed beside every run: CPU
// steal over the run, a fixed CPU kernel timed at start and end, GC
// cycles, GOMAXPROCS and the CPU model. They explain a noisy run; they
// never drop, reorder or rescale one.
type host struct {
	stealStart  [2]uint64 // steal, total jiffies at start
	kernelStart time.Duration
	gcStart     uint32
}

func startHost() *host {
	h := &host{}
	h.stealStart[0], h.stealStart[1] = cpuJiffies()
	h.kernelStart = cpuKernel()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h.gcStart = ms.NumGC
	return h
}

// report prints the diagnostics line for the run that began at
// startHost.
func (h *host) report() {
	steal, total := cpuJiffies()
	stealShare := math.NaN()
	if total > h.stealStart[1] {
		stealShare = float64(steal-h.stealStart[0]) / float64(total-h.stealStart[1])
	}
	kernelEnd := cpuKernel()
	var mst runtime.MemStats
	runtime.ReadMemStats(&mst)
	fmt.Printf("host: steal_share=%.4f kernel_start_ms=%.3f kernel_end_ms=%.3f gc_cycles=%d gomaxprocs=%d cpu=%q\n",
		stealShare, ms(h.kernelStart), ms(kernelEnd), mst.NumGC-h.gcStart,
		runtime.GOMAXPROCS(0), cpuModel())
}

// cpuJiffies reads the steal and total jiffies of the aggregate "cpu"
// line of /proc/stat (zeros where it is unavailable).
func cpuJiffies() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		for i, s := range fields[1:] {
			v, _ := strconv.ParseUint(s, 10, 64)
			if i < 8 { // user nice system idle iowait irq softirq steal
				total += v
			}
			if i == 7 {
				steal = v
			}
		}
		break
	}
	return steal, total
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// kernelSink keeps cpuKernel's result live.
var kernelSink float64

// cpuKernel times a fixed floating-point loop owned by the benchmark
// (about 20 ms on a current x86 core); its drift between run start and
// end shows how much the host's speed moved during the run.
func cpuKernel() time.Duration {
	t0 := time.Now()
	x := 1.0
	for i := 0; i < 20_000_000; i++ {
		x = x*1.0000001 + 1e-9
	}
	kernelSink = x
	return time.Since(t0)
}

// peakRSSMB is the process's peak resident set (getrusage ru_maxrss,
// the same high-water mark as VmHWM), in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// goCounters samples the runtime's cumulative allocation and CPU
// accounting.
type goCounters struct {
	allocBytes, gcCPU, totalCPU float64
}

func readGo() goCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return goCounters{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

// median returns the middle value (mean of the middle two for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile, or NaN when fewer
// than ten samples lie beyond it.
func percentile(xs []float64, q float64) float64 {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n)))
	if n-rank < 10 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1]
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
