package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processCPU is the user+sys CPU time this process has used so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is this process's peak resident set size in MB (Linux
// reports ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// cpuTicks is the host-wide aggregate "cpu" line of /proc/stat, in
// USER_HZ ticks: busy counts every non-idle tick, steal included. ok is
// false where /proc/stat cannot be read, and every figure derived from
// it is then zero.
type cpuTicks struct {
	busy, steal uint64
	ok          bool
}

// tickMS is the length of one USER_HZ tick; Linux fixes USER_HZ at 100.
const tickMS = 10

func readCPUTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var v [8]uint64
	for i := range v {
		v[i], err = strconv.ParseUint(f[i+1], 10, 64)
		if err != nil {
			return cpuTicks{}
		}
	}
	user, nice, system, irq, softirq, steal := v[0], v[1], v[2], v[5], v[6], v[7]
	return cpuTicks{busy: user + nice + system + irq + softirq + steal, steal: steal, ok: true}
}

// since is the tick delta from an earlier reading.
func (t cpuTicks) since(earlier cpuTicks) cpuTicks {
	if !t.ok || !earlier.ok || t.busy < earlier.busy || t.steal < earlier.steal {
		return cpuTicks{}
	}
	return cpuTicks{busy: t.busy - earlier.busy, steal: t.steal - earlier.steal, ok: true}
}

func (t cpuTicks) stealMS() float64 { return float64(t.steal * tickMS) }

// stealPct is steal as a share of busy host ticks (steal included).
func (t cpuTicks) stealPct() float64 {
	if t.busy == 0 {
		return 0
	}
	return 100 * float64(t.steal) / float64(t.busy)
}

// loadAvg is the host's one-minute load average, or -1 if unreadable.
func loadAvg() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	f := strings.Fields(string(data))
	if len(f) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return -1
	}
	return v
}
