package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// machine describes where a result was measured. Results are comparable
// only between runs whose Host matches; Commit, Seed and Workload describe
// the run itself.
type machine struct {
	Host     host   `json:"host"`
	Commit   string `json:"commit"`
	Seed     int64  `json:"seed"`
	Workload string `json:"workload"`
}

// host is the part of the descriptor that must match for two results to be
// compared.
type host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go"`
}

func describe(seed int64, workload string) machine {
	return machine{
		Host: host{
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NProc:      runtime.NumCPU(),
			CPU:        cpuModel(),
			GoVersion:  runtime.Version(),
		},
		Commit:   commit(),
		Seed:     seed,
		Workload: workload,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown" where
// the file or the field is absent).
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

// commit is the checked-out commit, or "unknown" outside a git work tree.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// maxRSSMiB is the peak resident set size of this process.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
