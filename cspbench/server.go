package main

// The server under test: a cspserved child process on loopback, its
// readiness probe, its /metrics document, its CPU time and peak RSS, and
// the host's CPU steal, all read from /proc.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cspsat/internal/server"
)

type serverProc struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{} // closed once the process has been waited for
	copied chan struct{} // closed once its stdout has been drained
	log    *os.File
}

// startServer spawns bin on an ephemeral loopback port and waits until
// /readyz answers 200. It returns the process and the time from spawn to
// readiness.
func startServer(bin, logPath string, args ...string) (*serverProc, time.Duration, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = logf
	// The server's stdout goes through a pipe of our own, so Wait does
	// not close it under the reader: the first line names the bound
	// address, the rest is copied to the log.
	pr, pw, err := os.Pipe()
	if err != nil {
		logf.Close()
		return nil, 0, err
	}
	cmd.Stdout = pw
	start := time.Now()
	err = cmd.Start()
	pw.Close()
	if err != nil {
		pr.Close()
		logf.Close()
		return nil, 0, err
	}
	s := &serverProc{cmd: cmd, log: logf, exited: make(chan struct{}), copied: make(chan struct{}), client: newClient(4)}
	addrc := make(chan string, 1)
	go func() {
		defer close(s.copied)
		defer pr.Close()
		br := bufio.NewReader(pr)
		line, _ := br.ReadString('\n')
		addrc <- line
		_, _ = io.Copy(logf, br) // the log is a diagnostic; a short copy loses nothing measured
	}()
	go func() {
		_ = cmd.Wait() // the exit status is irrelevant: stop always ends the process
		close(s.exited)
	}()

	deadline := time.NewTimer(60 * time.Second)
	defer deadline.Stop()
	select {
	case line := <-addrc:
		i := strings.Index(line, "http://")
		if i < 0 {
			s.stop()
			return nil, 0, fmt.Errorf("cspserved did not report its address (see %s)", logPath)
		}
		s.base = strings.Fields(line[i:])[0]
	case <-s.exited:
		s.stop()
		return nil, 0, fmt.Errorf("cspserved exited during start (see %s)", logPath)
	case <-deadline.C:
		s.stop()
		return nil, 0, errors.New("cspserved did not start within 60s")
	}
	for {
		resp, err := s.client.Get(s.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case <-s.exited:
			s.stop()
			return nil, 0, fmt.Errorf("cspserved exited before ready (see %s)", logPath)
		case <-deadline.C:
			s.stop()
			return nil, 0, errors.New("cspserved not ready within 60s")
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// stop sends SIGTERM, waits for the graceful drain, and kills the process
// if it outlives the wait. It always waits for the process to end.
func (s *serverProc) stop() {
	if s.cmd.Process != nil {
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.exited:
		case <-time.After(20 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.exited
		}
	}
	<-s.copied
	s.client.CloseIdleConnections()
	s.log.Close()
}

func (s *serverProc) pid() int { return s.cmd.Process.Pid }

// metrics scrapes GET /metrics into the server's own snapshot type.
func (s *serverProc) metrics() (server.Snapshot, error) {
	var snap server.Snapshot
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return snap, err
	}
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return snap, json.Unmarshal(data, &snap)
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux
// fixes it at 100 for user space.
const clockTick = 10 * time.Millisecond

// cpuTime is the process's user+system CPU time from /proc/<pid>/stat.
func cpuTime(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakResident is the process's VmHWM in bytes: the highest resident set
// since it started or since the last resetPeak.
func peakResident(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseInt(f[0], 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// resetPeak sets the process's VmHWM back to its current resident set
// (clear_refs value 5), so a later peakResident covers only what follows.
func resetPeak(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// hostCPU is the host's CPU time from the first line of /proc/stat, in
// clock ticks: steal (time the hypervisor ran something else while a
// vCPU wanted to run) and the total over all states.
func hostCPU() (steal, total int64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("malformed /proc/stat")
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, v := range f[1:9] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0, errors.New("malformed /proc/stat")
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, nil
}

func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
			DisableCompression:  true,
		},
	}
}
