package main

// Host-speed calibration. The host this benchmark was tuned on is a
// shared VM whose speed changes without any steal showing in /proc/stat:
// the in-process cold-gen replay, pure Go work in one process, read
// 7,800 to 21,000 requests/s at different times of one day, and the
// loopback figures of one commit moved 2.5 times with it. No bound a
// regression check can use survives that, so the timed figures are
// scaled to a reference speed. Between windows the load pauses and the
// benchmark times a fixed Go workload of its own (JSON encoding and
// decoding, maps, sorting, allocation: the kind of work cspserved's
// request path does) on every CPU. A run's figures are scaled by the
// speed over all of its calibrations: on a host running at half the
// reference speed a 2 ms latency reads as 1 ms and 500 requests/s as
// 1,000. The kernel does not depend on the program under test, so a
// slower program still reads slower; what cancels is the host's share.
// It runs in a child process of its own (this program with -calibrate),
// so the load generator's heap, whose size follows the workload, does
// not set how often the calibration collects.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// refSpeed is the reference speed, in calibration rounds per CPU
// second; calLen is how long one calibration runs.
const (
	refSpeed = 3000
	calLen   = 25 * time.Millisecond
)

// calDoc is the document one calibration round encodes and decodes.
type calDoc struct {
	Name   string            `json:"name"`
	Events []string          `json:"events"`
	Traces [][]string        `json:"traces"`
	Attrs  map[string]string `json:"attrs"`
	Depth  int               `json:"depth"`
}

var calInput = func() []calDoc {
	docs := make([]calDoc, 8)
	for i := range docs {
		d := calDoc{Name: fmt.Sprintf("proc%d", i), Depth: i, Attrs: map[string]string{}}
		for j := 0; j < 12; j++ {
			d.Events = append(d.Events, fmt.Sprintf("c%d.%d", i, j))
			d.Attrs[fmt.Sprintf("k%d", j)] = fmt.Sprintf("v%d", i*j)
		}
		for j := 0; j < 6; j++ {
			d.Traces = append(d.Traces, d.Events[:j+1])
		}
		docs[i] = d
	}
	return docs
}()

// calRound is one calibration round. Its result is checked so the work
// cannot be optimised away.
func calRound() int {
	data, err := json.Marshal(calInput)
	if err != nil {
		panic(err)
	}
	var back []calDoc
	if err := json.Unmarshal(data, &back); err != nil {
		panic(err)
	}
	seen := map[string]int{}
	var keys []string
	for _, d := range back {
		for _, e := range d.Events {
			if seen[e]++; seen[e] == 1 {
				keys = append(keys, e)
			}
		}
	}
	sort.Strings(keys)
	return len(keys) + len(data)
}

// calWant is calRound's result, fixed by calInput.
var calWant = calRound()

// calRun is what one or more calibrations measured: the rounds done
// and the CPU time they had, every CPU's wall time less the host's steal.
type calRun struct {
	rounds int
	cpu    time.Duration
}

func (c calRun) add(d calRun) calRun { return calRun{c.rounds + d.rounds, c.cpu + d.cpu} }

// speed is the host's speed over c, as a share of refSpeed.
func (c calRun) speed() float64 {
	if c.cpu <= 0 {
		return 0
	}
	return float64(c.rounds) / c.cpu.Seconds() / refSpeed
}

// calibrate runs calibration rounds on every CPU for calLen. A host in a
// steal episode runs the rounds on what the hypervisor leaves it, and
// the steal is taken off their CPU time: cspserved under a closed loop
// is idle part of the time and loses less to steal than rounds that
// keep every CPU busy. Steal is read in 10-ms ticks, coarse against one
// calibration, so its error only averages out over the many
// calibrations a run adds up.
func calibrate() calRun {
	n := runtime.NumCPU()
	rounds := make([]int, n)
	var wg sync.WaitGroup
	steal0, _, err0 := hostCPU()
	start := time.Now()
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < calLen {
				if calRound() != calWant {
					panic("calibration round changed its result")
				}
				rounds[g]++
			}
		}()
	}
	wg.Wait()
	wall := time.Duration(n) * time.Since(start)
	steal1, _, err1 := hostCPU()
	c := calRun{cpu: wall}
	if err0 == nil && err1 == nil {
		c.cpu -= time.Duration(steal1-steal0) * clockTick
	}
	// One tick too many read against a short calibration must not make
	// its CPU time vanish.
	c.cpu = max(c.cpu, wall/4)
	for _, r := range rounds {
		c.rounds += r
	}
	return c
}

// serveCalibrations is the -calibrate child: one calibration for every
// line read from standard input, answered with a line "rounds cpu_ns",
// until standard input closes.
func serveCalibrations() error {
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		c := calibrate()
		if _, err := fmt.Printf("%d %d\n", c.rounds, int64(c.cpu)); err != nil {
			return err
		}
	}
	return in.Err()
}

// calibrator is a running -calibrate child.
type calibrator struct {
	cmd     *exec.Cmd
	in      io.WriteCloser
	out     *bufio.Reader
	stopped sync.Once
}

func startCalibrator() (*calibrator, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-calibrate")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &calibrator{cmd: cmd, in: in, out: bufio.NewReader(out)}, nil
}

// run has the child calibrate once.
func (c *calibrator) run() (calRun, error) {
	if _, err := io.WriteString(c.in, "\n"); err != nil {
		return calRun{}, err
	}
	line, err := c.out.ReadString('\n')
	if err != nil {
		return calRun{}, fmt.Errorf("calibrator: %w", err)
	}
	f := strings.Fields(line)
	if len(f) != 2 {
		return calRun{}, errors.New("calibrator: malformed answer")
	}
	rounds, err1 := strconv.Atoi(f[0])
	cpu, err2 := strconv.ParseInt(f[1], 10, 64)
	if err1 != nil || err2 != nil {
		return calRun{}, errors.New("calibrator: malformed answer")
	}
	return calRun{rounds, time.Duration(cpu)}, nil
}

// stop closes the child's input and waits for it to end. Calls after
// the first do nothing.
func (c *calibrator) stop() {
	c.stopped.Do(func() {
		c.in.Close()
		_ = c.cmd.Wait() // it exits on end of input; its status says nothing measured
	})
}
