package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// stamp identifies the code, toolchain, host and inputs a result came from.
type stamp struct {
	Workload     string            `json:"workload"`
	Seed         int64             `json:"seed"`
	Seconds      float64           `json:"seconds"`
	Trace        bool              `json:"trace"`
	Commit       string            `json:"commit"`
	SourceSHA256 string            `json:"source_sha256"`
	GoVersion    string            `json:"go_version"`
	GOMAXPROCS   int               `json:"gomaxprocs"`
	NProc        int               `json:"nproc"`
	CPUModel     string            `json:"cpu_model"`
	Caches       map[string]string `json:"caches"`
	LLCBytes     int64             `json:"llc_bytes"`
}

func stampEnv(root, workload string, cfg config) stamp {
	caches, llc := cacheSizes()
	return stamp{
		Workload:     workload,
		Seed:         cfg.seed,
		Seconds:      cfg.seconds.Seconds(),
		Trace:        cfg.trace,
		Commit:       gitCommit(root),
		SourceSHA256: sourceDigest(root),
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NProc:        runtime.NumCPU(),
		CPUModel:     cpuModel(),
		Caches:       caches,
		LLCBytes:     llc,
	}
}

// gitCommit resolves .git/HEAD without running git; a checkout that is not
// a git repository reports "unknown" and is identified by SourceSHA256.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and go.mod file of the checkout
// (skipping dot directories), so results from a tree without git history
// still name the code they measured.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		body, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		h.Write([]byte(rel + "\x00"))
		h.Write(body)
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

// cacheSizes reads the caches the kernel reports for cpu0, keyed like
// "L1d", "L2", "L3", and returns the largest as the last-level size.
func cacheSizes() (map[string]string, int64) {
	out := map[string]string{}
	var llc int64
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		read := func(name string) string {
			b, _ := os.ReadFile(filepath.Join(d, name))
			return strings.TrimSpace(string(b))
		}
		level, typ, size := read("level"), read("type"), read("size")
		if level == "" || size == "" {
			continue
		}
		key := "L" + level
		switch typ {
		case "Data":
			key += "d"
		case "Instruction":
			key += "i"
		}
		out[key] = size
		if b := parseCacheSize(size); b > llc {
			llc = b
		}
	}
	return out, llc
}

// parseCacheSize parses sysfs sizes such as "48K" or "300M".
func parseCacheSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return v * mult
}
