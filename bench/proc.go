package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is a snapshot of the process's resource counters.
type usage struct {
	wall time.Time
	// cpu is user+sys time from getrusage.
	cpu time.Duration
	// allocBytes is the cumulative heap allocation.
	allocBytes uint64
	// gcCPU and totalCPU are the runtime's CPU accounting in seconds.
	gcCPU, totalCPU float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// sampleUsage reads the process counters.
func sampleUsage() (usage, error) {
	u := usage{wall: time.Now()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return u, fmt.Errorf("getrusage: %w", err)
	}
	u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	u.allocBytes = s[0].Value.Uint64()
	u.gcCPU = s[1].Value.Float64()
	u.totalCPU = s[2].Value.Float64()
	return u, nil
}

// usageDelta is what the process spent between two snapshots.
type usageDelta struct {
	wall, cpu  time.Duration
	allocBytes uint64
	// gcFrac is the share of the runtime's CPU time spent in the GC.
	gcFrac float64
}

func (u usage) since(from usage) usageDelta {
	d := usageDelta{
		wall:       u.wall.Sub(from.wall),
		cpu:        u.cpu - from.cpu,
		allocBytes: u.allocBytes - from.allocBytes,
	}
	if total := u.totalCPU - from.totalCPU; total > 0 {
		d.gcFrac = (u.gcCPU - from.gcCPU) / total
	}
	return d
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 || fields[2] != "kB" {
			return 0, fmt.Errorf("peak RSS: unexpected line %q", line)
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("peak RSS: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
