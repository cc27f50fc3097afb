package main

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is the process cost of one timed section.
type usage struct {
	wallS     float64
	cpuS      float64 // user + system
	allocMB   float64 // heap bytes allocated, in MB (1e6 bytes)
	allocsK   float64 // heap objects allocated, in thousands
	maxRSSMB  float64 // peak resident set during the section, in MB
	gcCycles  float64
	gcCPUFrac float64 // GC CPU ÷ all Go CPU
}

// meter brackets a timed section. start collects garbage first, so the
// section never pays for a previous section's heap.
type meter struct {
	t0     time.Time
	cpu0   float64
	ms0    runtime.MemStats
	gc0    []metrics.Sample
	resetR bool // peak RSS was reset, so VmHWM covers the section alone
}

var gcSamples = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readGC() []metrics.Sample {
	s := make([]metrics.Sample, len(gcSamples))
	for i, name := range gcSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

func sampleFloat(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

func startMeter() *meter {
	runtime.GC()
	m := &meter{}
	// Writing 5 to clear_refs resets the kernel's peak-RSS mark for this
	// process; where that is unavailable the peak covers the process.
	m.resetR = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
	runtime.ReadMemStats(&m.ms0)
	m.gc0 = readGC()
	m.cpu0 = cpuSeconds()
	m.t0 = time.Now()
	return m
}

func (m *meter) stop() usage {
	wall := time.Since(m.t0).Seconds()
	cpu := cpuSeconds() - m.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc1 := readGC()
	u := usage{
		wallS:    wall,
		cpuS:     cpu,
		allocMB:  float64(ms.TotalAlloc-m.ms0.TotalAlloc) / 1e6,
		allocsK:  float64(ms.Mallocs-m.ms0.Mallocs) / 1e3,
		maxRSSMB: peakRSSMB(),
		gcCycles: sampleFloat(gc1[0]) - sampleFloat(m.gc0[0]),
	}
	if total := sampleFloat(gc1[2]) - sampleFloat(m.gc0[2]); total > 0 {
		u.gcCPUFrac = (sampleFloat(gc1[1]) - sampleFloat(m.gc0[1])) / total
	}
	return u
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB reads VmHWM (the peak resident set) from /proc, falling
// back to getrusage's lifetime maximum.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// settleDisk writes dirty file data back to disk, so that a set-up
// measured next does not queue its file creations behind the writeback
// of what earlier phases of the run wrote.
func settleDisk() { syscall.Sync() }

// diskBytes sums the sizes of the regular files under the given roots.
func diskBytes(roots ...string) int64 {
	var n int64
	for _, root := range roots {
		_ = filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
			if err != nil || !d.Type().IsRegular() {
				return nil
			}
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
			return nil
		})
	}
	return n
}

// quantile is the linearly interpolated q-quantile of xs (the same
// definition as numpy's default); 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
