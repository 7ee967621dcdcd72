package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// envStamp identifies the code and machine a result was measured on.
type envStamp struct {
	Commit    string `json:"commit"`
	SourceSHA string `json:"source_sha256"`
	CPU       string `json:"cpu_model"`
	NProc     int    `json:"nproc"`
	GoMaxProc int    `json:"gomaxprocs"`
	GoVersion string `json:"go_version"`
	WALFS     string `json:"wal_fs"`
	WALFsync  string `json:"wal_fsync"` // "device", or "no-op" under the seccomp filter
}

func stamp(root, walDir, walFsync string) envStamp {
	return envStamp{
		Commit:    gitCommit(root),
		SourceSHA: sourceDigest(root),
		CPU:       cpuModel(),
		NProc:     runtime.NumCPU(),
		GoMaxProc: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(),
		WALFS:     fsType(walDir),
		WALFsync:  walFsync,
	}
}

// gitCommit is HEAD of the checkout, or "none" outside a git work tree
// (the benchmark also runs from exported sources).
func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the Go sources and module files under root, so a
// result names the code it measured even without git.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
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

// fsType names the filesystem holding dir by its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}
