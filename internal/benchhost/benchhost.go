package benchhost

import (
	"bufio"
	"os"
	"runtime"
	"strings"
)

// Host is a machine fingerprint. Two runs are comparable only when
// their Hosts are equal.
type Host struct {
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// Current fingerprints this process's host: the CPU model name (the
// architecture where /proc/cpuinfo does not name one), GOMAXPROCS and
// the Go toolchain version.
func Current() Host {
	h := Host{CPU: runtime.GOARCH, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return h
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if key, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(key) == "model name" {
			h.CPU = strings.TrimSpace(val)
			break
		}
	}
	return h
}
