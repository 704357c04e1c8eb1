package main

// The provenance stamp printed with every result: what was measured, on
// what, with which inputs.

import (
	"encoding/hex"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

type stamp struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	// Commit and Dirty come from git when the checkout is a repository.
	Commit     string `json:"commit"`
	Dirty      *bool  `json:"dirty"`
	Go         string `json:"go"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	Clients    int    `json:"clients"`
	// CorpusRequests and CorpusDigest pin the generated inputs: one seed
	// must always give the same digest.
	CorpusRequests int    `json:"corpus_requests"`
	CorpusDigest   string `json:"corpus_digest"`
	// StoreFS and JournalFS name the filesystem under the store and
	// journal directories ("" when the workload runs without one).
	StoreFS   string `json:"store_fs"`
	JournalFS string `json:"journal_fs"`
}

func (e *env) stamp() *stamp {
	s := &stamp{
		Workload:       e.w.name,
		Seed:           e.o.seed,
		Seconds:        e.o.seconds,
		Trace:          e.o.trace,
		Commit:         "unknown",
		Go:             runtime.Version(),
		NumCPU:         runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		GOGC:           os.Getenv("GOGC"),
		Clients:        e.w.clients,
		CorpusRequests: len(e.reqs),
		CorpusDigest:   corpusDigest(e.reqs),
	}
	if s.GOGC == "" {
		s.GOGC = "default (100)"
	}
	if out, err := exec.Command("git", "-C", e.o.root, "rev-parse", "HEAD").Output(); err == nil {
		s.Commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "-C", e.o.root, "status", "--porcelain").Output(); err == nil {
			dirty := len(strings.TrimSpace(string(st))) > 0
			s.Dirty = &dirty
		}
	}
	if e.w.store {
		s.StoreFS = fsType(e.dir)
	}
	if e.w.journal {
		s.JournalFS = fsType(e.dir)
	}
	return s
}

// fsType names the filesystem holding path from its statfs magic.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	case 0x65735546:
		return "fuse"
	}
	return "0x" + strings.ToLower(strings.TrimLeft(hex.EncodeToString([]byte{
		byte(st.Type >> 24), byte(st.Type >> 16), byte(st.Type >> 8), byte(st.Type),
	}), "0"))
}
