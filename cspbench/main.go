// Command cspbench is the end-to-end benchmark of cspserved. It boots the
// real server binary on loopback, drives one named workload with a
// closed-loop client, verifies every timed response, and prints the
// end-to-end metrics; with -trace 1 it instead reports per-layer numbers
// from /metrics deltas and an in-process traced replay of the same inputs.
//
//	bash cspbench/run.sh --workload hot-corpus --seed 1 --seconds 10 --trace 0
//
// run.sh builds cspserved and this program from the checkout and passes
// -root, -server and -work. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. README.md lists
// the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	root     string
	server   string
	work     string
	// gcPercent is the GC setting the process started with, which the
	// in-process replay restores so it collects like the server does.
	gcPercent int
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a run reports: the result line plus the stamp and the
// sample counts printed above it.
type outcome struct {
	attempted, failed int
	errs              []string
	metrics           map[string]metric
	samples           map[string]int
	// notes are diagnostics printed and kept with the result but not
	// reported as metrics, such as the host's CPU steal.
	notes   map[string]float64
	windows []windowRow
	stamp   *stamp
}

func (o *outcome) set(name string, v float64, unit string) {
	o.metrics[name] = metric{v, unit}
}

// absorb adds a phase's counts to the run's tally.
func (o *outcome) absorb(name string, r phaseResult) {
	o.attempted += r.attempted
	o.failed += r.failed
	for _, e := range r.errs {
		o.errs = append(o.errs, name+": "+e)
	}
}

// violate records a failed tier assertion as one failed operation.
func (o *outcome) violate(format string, args ...any) {
	o.attempted++
	o.failed++
	o.errs = append(o.errs, "tier: "+fmt.Sprintf(format, args...))
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name (hot-corpus, cold-gen, warm-restart)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 = report per-layer metrics from the traced run")
	flag.StringVar(&o.root, "root", ".", "repository checkout (for specs/scenarios)")
	flag.StringVar(&o.server, "server", "", "cspserved binary built from the checkout")
	flag.StringVar(&o.work, "work", ".bench_build/work", "scratch directory for stores, journals, logs and results")
	calibrateOnly := flag.Bool("calibrate", false, "serve host-speed calibrations on stdin/stdout (the benchmark's own child)")
	flag.Parse()
	if *calibrateOnly {
		if err := serveCalibrations(); err != nil {
			fmt.Fprintln(os.Stderr, "cspbench -calibrate:", err)
			os.Exit(1)
		}
		return
	}
	// The load generator holds whole corpora (tens of MB on cold-gen) and
	// shares two CPUs with the server; collecting its heap less often
	// keeps its own GC pauses out of the server's latency tail.
	o.gcPercent = debug.SetGCPercent(200)
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "cspbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	w, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		return errors.New("need -seconds >= 1 and -trace 0 or 1")
	}
	if o.server == "" {
		return errors.New("need -server")
	}
	dir := filepath.Join(o.work, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	env, err := newEnv(o, w, dir)
	if err != nil {
		return err
	}
	if env.cal, err = startCalibrator(); err != nil {
		return err
	}
	defer env.cal.stop()
	out := &outcome{metrics: map[string]metric{}, samples: map[string]int{}, notes: map[string]float64{}}
	if o.trace == 0 {
		err = env.endToEnd(out)
	} else {
		err = env.layers(out)
	}
	if err != nil {
		return err
	}
	out.stamp = env.stamp()
	// report may exit the process, which skips deferred calls.
	env.cal.stop()
	return report(o, out)
}

// report prints the stamp, one line per metric, and the result line, and
// keeps a copy of all of it under the work directory.
func report(o options, out *outcome) error {
	stampJSON, _ := json.Marshal(out.stamp)
	fmt.Printf("stamp %s\n", stampJSON)
	names := make([]string, 0, len(out.metrics))
	for n := range out.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := out.metrics[n]
		fmt.Printf("metric %-34s %14.6f %s\n", n, m.Value, m.Unit)
	}
	for _, k := range sortedKeys(out.samples) {
		fmt.Printf("samples %-33s %d\n", k, out.samples[k])
	}
	for _, k := range sortedKeys(out.notes) {
		fmt.Printf("note %-36s %.4f\n", k, out.notes[k])
	}
	for _, e := range out.errs {
		fmt.Printf("failure %s\n", e)
	}
	failRatio := float64(out.failed) / float64(max(out.attempted, 1))
	fmt.Printf("fail_ratio %.6f (%d of %d)\n", failRatio, out.failed, out.attempted)

	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, out.metrics})
	if err != nil {
		return err
	}
	results := filepath.Join(o.work, "results")
	if err := os.MkdirAll(results, 0o755); err == nil {
		name := fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, o.trace)
		rec, _ := json.MarshalIndent(map[string]any{
			"stamp": out.stamp, "samples": out.samples, "notes": out.notes, "windows": out.windows, "failures": out.errs,
			"attempted": out.attempted, "failed": out.failed, "metrics": out.metrics,
		}, "", "  ")
		// The copy is for people reading results later; the result line
		// below is what counts, so a failed write is not fatal.
		_ = os.WriteFile(filepath.Join(results, name), rec, 0o644)
	}
	fmt.Println(string(line))
	if out.failed > 0 {
		// A failed verdict, transport error or tier violation fails the
		// command, after the result line has been printed.
		os.Exit(2)
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
