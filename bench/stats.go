package main

import (
	"bufio"
	"math"
	"os"
	gort "runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"pico/internal/tensor"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles of Python's
// statistics.quantiles(xs, n=4) — the acceptance check's definition.
func quartileSpread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	cut := func(i int) float64 {
		pos := float64(i*(n+1)) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return (cut(3) - cut(1)) / math.Abs(median(s))
}

// rangeSpread is the distance between the smallest and largest value as a
// share of the median.
func rangeSpread(xs []float64) float64 {
	return (quantile(xs, 1) - quantile(xs, 0)) / math.Abs(median(xs))
}

// usage is the process's user+system CPU time so far and getrusage's max
// resident set size (KiB on Linux) in MB.
func usage() (cpu time.Duration, peakRSSMB float64, err error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), float64(ru.Maxrss) / 1024, nil
}

// fingerprint identifies the host and build a result came from.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	SIMD       string `json:"simd"`
	Commit     string `json:"commit"`
}

func hostFingerprint() fingerprint {
	fp := fingerprint{
		CPU:        "unknown",
		NProc:      gort.NumCPU(),
		GOMAXPROCS: gort.GOMAXPROCS(0),
		GoVersion:  gort.Version(),
		SIMD:       tensor.SIMDName(),
		Commit:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
		_ = f.Close() // read-only
	}
	// The toolchain stamps the commit when it builds inside a git checkout;
	// the driver's checkout is not one.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				fp.Commit = s.Value
			}
		}
	}
	return fp
}
