package benchharness

import (
	"bufio"
	"encoding/json"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// Env identifies the code and machine a record was measured on, with the
// fields perfbench stamps on its results.
type Env struct {
	Commit     string `json:"commit"` // "-dirty" when the tree had uncommitted changes
	CPU        string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// Record is the envelope shared by every BENCH_*.json file that the
// driver's experiments write: the experiment, where it ran, and its
// results in the experiment's own shape.
type Record struct {
	Experiment string `json:"experiment"`
	Env        Env    `json:"env"`
	Results    any    `json:"results"`
}

// WriteRecord stamps results with the current environment and writes
// them to path as an indented Record.
func WriteRecord(path, experiment string, results any) error {
	data, err := json.MarshalIndent(Record{Experiment: experiment, Env: stamp(), Results: results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func stamp() Env {
	commit := "none" // outside a git work tree
	if out, err := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=40").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return Env{
		Commit:     commit,
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
