package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// repeatRuns runs one workload n times, each in a fresh process of this
// binary with seeds seed, seed+1, …, and prints every metric's median,
// quartiles and interquartile spread as a share of the median — the
// steadiness figure a benchmark bound has to exceed.
func repeatRuns(n int, name string, seed int64, secs, traced int, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	values := make(map[string][]float64)
	units := make(map[string]string)
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.Itoa(secs), "--trace", strconv.Itoa(traced))
		cmd.Stderr = stderr
		raw, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: run %d (seed %d): %v\n", i+1, s, err)
			return 1
		}
		var res result
		if err := json.Unmarshal(lastLine(raw), &res); err != nil {
			fmt.Fprintf(stderr, "perfbench: run %d (seed %d): %v\n", i+1, s, err)
			return 1
		}
		fmt.Fprintf(stdout, "run %d seed %d: %s\n", i+1, s, lastLine(raw))
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-30s %14s %14s %14s %8s\n", "metric", "q1", "median", "q3", "iqr/med")
	for _, k := range names {
		v := values[k]
		q1, med, q3 := quartiles(v)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Fprintf(stdout, "%-30s %14.6g %14.6g %14.6g %8.4f %s\n", k, q1, med, q3, spread, units[k])
	}
	return 0
}

// quartiles computes the quartiles by the exclusive method, the
// default of Python's statistics.quantiles(values, n=4).
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) < 2 {
		v := quantile(xs, 0.5)
		return v, v, v
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := max(1, min(i*m/4, len(s)-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}
