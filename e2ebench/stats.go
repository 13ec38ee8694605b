package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs,
// sorting xs in place; 0 for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	k := int(q*float64(len(xs))+0.999999999) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(xs) {
		k = len(xs) - 1
	}
	return xs[k]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime returns the CPU time the process has used so far, on every
// thread (the garbage collector's included). Unlike wall time it does not
// count time the host takes the virtual CPU away from the guest (steal),
// which on a shared machine is most of the run-to-run noise.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAllocs returns the process's cumulative heap allocation count.
// ReadMemStats flushes every per-P cache first, so deltas are exact.
func heapAllocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// environment records what a result was measured on.
func environment(workload string, rc runConfig) map[string]any {
	return map[string]any{
		"workload":   workload,
		"seed":       rc.seed,
		"seconds":    rc.budget.Seconds(),
		"trace":      rc.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goarch":     runtime.GOARCH,
		"cpu":        cpuModel(),
	}
}

// cpuModel reads the processor name the kernel reports; "unknown" where
// it reports none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
