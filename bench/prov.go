package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	gort "runtime"
	"strings"
)

// firstLine returns the trimmed first line of a file, "" when unreadable.
func firstLine(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return strings.TrimSpace(line)
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit asks git for the checkout's commit; a checkout that is not a
// repository (an exported tree) has none.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// fsType names the filesystem holding dir: the longest mount point in
// /proc/mounts that prefixes it.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, fs := "", "unknown"
	for sc := bufio.NewScanner(f); sc.Scan(); {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mp := fields[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, fs = mp, fields[2]
		}
	}
	return fs
}

// printProvenance heads every run with what it ran on. The harness sets no
// runtime knob: GOGC and GOMAXPROCS are whatever the process was given.
func printProvenance(w io.Writer, workload string, seed int64, seconds int, traced bool, outDir string) {
	kernel := firstLine("/proc/sys/kernel/osrelease")
	if kernel == "" {
		kernel = "unknown"
	}
	fmt.Fprintf(w, "# workload %s seed %d seconds %d traced %v\n", workload, seed, seconds, traced)
	fmt.Fprintf(w, "# commit %s %s GOMAXPROCS %d nproc %d\n", commit(), gort.Version(), gort.GOMAXPROCS(0), gort.NumCPU())
	fmt.Fprintf(w, "# cpu %q kernel %s out-dir fs %s\n", cpuModel(), kernel, fsType(outDir))
}
