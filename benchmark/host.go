package main

import (
	"bytes"
	"os"
	"runtime"
	"runtime/debug"
)

// hostStamp says where and from what a result file was measured.
type hostStamp struct {
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOAMD64    string `json:"goamd64"`
	GitCommit  string `json:"git_commit"`
}

func stampHost() hostStamp {
	h := hostStamp{
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOAMD64:    "unknown",
		GitCommit:  "unknown",
	}
	// The toolchain stamps both into the binary; outside a git checkout
	// (the driver's) there is no revision to report.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "GOAMD64":
				h.GOAMD64 = s.Value
			case "vcs.revision":
				h.GitCommit = s.Value
			}
		}
	}
	return h
}

// cpuModel is the first "model name" of /proc/cpuinfo, best effort.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if bytes.HasPrefix(line, []byte("model name")) {
			if i := bytes.IndexByte(line, ':'); i >= 0 {
				return string(bytes.TrimSpace(line[i+1:]))
			}
		}
	}
	return "unknown"
}
