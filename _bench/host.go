package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostRecord identifies where and how a run happened, so runs from
// different hosts, from a host with a noisy neighbour, or with a timed phase
// that started cold can be told apart.
type hostRecord struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	// StealPct is the share of all host CPU time the hypervisor stole
	// during the timed phase, from /proc/stat; -1 when unavailable.
	StealPct float64 `json:"steal_pct"`
	// CachesFull reports whether the warm-up filled the feature caches
	// before the timed phase (always true for a workload without one).
	CachesFull bool `json:"caches_full"`
}

func newHostRecord() hostRecord {
	return hostRecord{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		StealPct:   -1,
	}
}

// cpuStat is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuStat struct {
	total, steal uint64
}

// parseCPUStat reads the aggregate cpu line of a /proc/stat image. The
// total is user+nice+system+idle+iowait+irq+softirq+steal; guest time is
// already included in user and nice, so it is not added again. Kernels
// older than 2.6.11 have no steal column and report steal 0.
func parseCPUStat(r io.Reader) (cpuStat, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || f[0] != "cpu" {
			continue
		}
		if len(f) < 5 {
			return cpuStat{}, fmt.Errorf("proc/stat: short cpu line %q", sc.Text())
		}
		var st cpuStat
		for i, s := range f[1:min(len(f), 9)] {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				return cpuStat{}, fmt.Errorf("proc/stat: cpu field %d: %w", i+1, err)
			}
			st.total += v
			if i == 7 {
				st.steal = v
			}
		}
		return st, nil
	}
	if err := sc.Err(); err != nil {
		return cpuStat{}, err
	}
	return cpuStat{}, fmt.Errorf("proc/stat: no aggregate cpu line")
}

// stealPct is the stolen share of host CPU time between two snapshots, in
// percent (0 when no time passed).
func stealPct(a, b cpuStat) float64 {
	if b.total <= a.total || b.steal < a.steal {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// readCPUStat snapshots /proc/stat; ok is false where it does not exist.
func readCPUStat() (cpuStat, bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuStat{}, false
	}
	defer f.Close()
	st, err := parseCPUStat(f)
	return st, err == nil
}

// processCPU is the process's user+system CPU time so far (getrusage).
// Unlike wall time it does not grow while the hypervisor steals the CPU.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phaseClock measures one timed phase: wall time, process CPU time and the
// host's steal share over the same interval.
type phaseClock struct {
	wall0  time.Time
	cpu0   time.Duration
	stat0  cpuStat
	statOK bool
}

func startPhase() phaseClock {
	st, ok := readCPUStat()
	return phaseClock{wall0: time.Now(), cpu0: processCPU(), stat0: st, statOK: ok}
}

// stop returns the phase's wall time, CPU time and steal share (-1 when
// /proc/stat is unavailable).
func (p phaseClock) stop() (wall, cpu time.Duration, steal float64) {
	wall = time.Since(p.wall0)
	cpu = processCPU() - p.cpu0
	steal = -1
	if st, ok := readCPUStat(); ok && p.statOK {
		steal = stealPct(p.stat0, st)
	}
	return wall, cpu, steal
}

// elapsed is the wall time since the phase started.
func (p phaseClock) elapsed() time.Duration { return time.Since(p.wall0) }
