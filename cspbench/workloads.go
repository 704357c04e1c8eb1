package main

// The four workloads and the untraced end-to-end run over the real
// cspserved process.

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cspsat/internal/server"
	"cspsat/pkg/csp"
)

type workload struct {
	name    string
	clients int
	// setups is how many servers a run boots; setup_s is the median of
	// their set-up times and the last one serves the timed phase.
	setups int
	// store and journal start the server with -store / -journal.
	store, journal bool
	// hit is the cache_hit every timed response must report: true when
	// the module comes from the memory or store tier, false on a compile.
	hit bool
	// wrap makes the timed pass cycle over the corpus; otherwise every
	// timed request is a corpus entry never sent before.
	wrap bool
}

var workloads = map[string]workload{
	"hot-corpus":   {name: "hot-corpus", clients: 2, setups: 3, hit: true, wrap: true},
	"cold-gen":     {name: "cold-gen", clients: 2, setups: 15, journal: true},
	"warm-restart": {name: "warm-restart", clients: 2, setups: 15, store: true, hit: true, wrap: true},
}

const (
	// coldRate is the request rate cold-gen's corpus is sized for
	// (requests per measured second): above the in-process replay's
	// rate (about 21,000/s) and 2.4 times the fastest rate measured over
	// loopback (about 9,900/s). A timed phase that still runs out of
	// fresh modules before its time is up counts as a failure.
	coldRate = 24000
	// warmModules is the size of the warm-restart corpus. It is well
	// above the server's default module-cache capacity (128), so a pass
	// in corpus order evicts every module before it comes round again
	// and each timed request is served by the store tier.
	warmModules = 1024
	// hotShuffles is how many permutations of the hot corpus the timed
	// phase cycles through.
	hotShuffles = 64
	// setupCals is how many calibrations follow each set-up.
	setupCals = 4
	// peakRequests is how many responses a timed phase serves before
	// the server's peak resident set is read.
	peakRequests = 20000
)

// env is one run's state: options, inputs and scratch directory.
type env struct {
	o    options
	w    workload
	dir  string
	reqs []request
	// warmup is hot-corpus's warm-up pass, the corpus in file order.
	warmup []request
	// recorded holds warm-restart's verdicts from the recording pass,
	// which every replayed response must reproduce; recordWrites is the
	// recording server's module-cache counters when the pass ended.
	recorded     []string
	recordWrites csp.ModuleCacheStats
	// cal is the host-speed calibrator.
	cal *calibrator
}

func newEnv(o options, w workload, dir string) (*env, error) {
	e := &env{o: o, w: w, dir: dir}
	var err error
	switch w.name {
	case "hot-corpus":
		// The warm-up goes in file order, so which requests overlap in it
		// (the two slow proofs above all) does not depend on the seed. The
		// timed phase cycles through hotShuffles seeded permutations of
		// the corpus, so the two clients see many pairings of slow and
		// fast requests in every run rather than one pairing per seed.
		// The timed phase leaves out the requests the server never
		// caches, so on it the engines do no work.
		e.warmup, err = hotCorpus(o.root)
		var cached []request
		for _, r := range e.warmup {
			if !r.uncached {
				cached = append(cached, r)
			}
		}
		r := rand.New(rand.NewSource(o.seed))
		for k := 0; k < hotShuffles; k++ {
			for _, i := range r.Perm(len(cached)) {
				e.reqs = append(e.reqs, cached[i])
			}
		}
	case "cold-gen":
		e.reqs = genCorpus(o.seed, coldRate*o.seconds)
	case "warm-restart":
		e.reqs = genCorpus(o.seed, warmModules)
	}
	return e, err
}

// spawn boots server k of this run. All servers of a run share one
// store, so warm-restart's boots all rehydrate the recorded one.
func (e *env) spawn(k int) (*serverProc, time.Duration, error) {
	var args []string
	if e.w.store {
		args = append(args, "-store", filepath.Join(e.dir, "store"))
	}
	if e.w.journal {
		args = append(args, "-journal", filepath.Join(e.dir, "journal-"+strconv.Itoa(k)))
	}
	return startServer(e.o.server, filepath.Join(e.dir, fmt.Sprintf("server-%d.log", k)), args...)
}

// setupTime is one set-up's time in seconds and the setupCals
// calibrations run right after it.
type setupTime struct {
	s   float64
	cal calRun
}

// prepare runs everything before the timed phase: the untimed recording
// pass of warm-restart, then repeats server set-ups (spawn to /readyz,
// plus the warm-up pass on hot-corpus), then the flush pass of
// warm-restart. It returns the last server, ready for the timed phase,
// and the set-up times.
func (e *env) prepare(out *outcome, repeats int) (*serverProc, []setupTime, error) {
	var recorded []string
	if e.w.name == "warm-restart" {
		srv, _, err := e.spawn(-1)
		if err != nil {
			return nil, nil, err
		}
		recorded = make([]string, len(e.reqs))
		res := drive(srv.client, srv.base, phase{reqs: e.reqs, clients: e.w.clients, wantHit: boolp(false), record: recorded})
		snap, err := srv.metrics()
		srv.stop()
		if err != nil {
			return nil, nil, err
		}
		e.recordWrites = snap.ModuleCache
		out.absorb("record", res)
		if res.failed > 0 {
			return nil, nil, fmt.Errorf("recording the warm-restart store failed: %v", res.errs)
		}
	}
	var setups []setupTime
	var srv *serverProc
	for k := 0; k < repeats; k++ {
		if srv != nil {
			srv.stop()
		}
		var took time.Duration
		var err error
		srv, took, err = e.spawn(k)
		if err != nil {
			return nil, nil, err
		}
		if e.w.name == "hot-corpus" {
			t0 := time.Now()
			res := drive(srv.client, srv.base, phase{reqs: e.warmup, clients: e.w.clients})
			took += time.Since(t0)
			out.absorb("warm-up", res)
			if res.failed > 0 {
				srv.stop()
				return nil, nil, fmt.Errorf("warm-up failed: %v", res.errs)
			}
		}
		// The server is idle now, so the calibrations have the host to
		// themselves, as the set-up had.
		var cal calRun
		for i := 0; i < setupCals; i++ {
			c, err := e.cal.run()
			if err != nil {
				srv.stop()
				return nil, nil, err
			}
			cal = cal.add(c)
		}
		setups = append(setups, setupTime{took.Seconds(), cal})
	}
	if e.w.name == "warm-restart" {
		res := drive(srv.client, srv.base, phase{reqs: e.reqs, clients: e.w.clients, wantHit: boolp(true), replay: recorded})
		out.absorb("flush", res)
		e.recorded = recorded
	}
	return srv, setups, nil
}

// timedPhase runs the measured closed loop on srv for d (longer while
// the host's steal leaves it short of quiet windows), reading the
// server's CPU time and the host's steal once a window, reading the
// server's peak resident set at the end, and checks the workload's tier
// assertions on the /metrics deltas around it.
func (e *env) timedPhase(out *outcome, srv *serverProc, d time.Duration) (phaseResult, []pause, server.Snapshot, server.Snapshot, error) {
	before, err := srv.metrics()
	if err != nil {
		return phaseResult{}, nil, before, before, err
	}
	// The set-up before this phase (the warm-up prover above all) can
	// leave a transient peak in VmHWM; resetting it makes the peak read
	// in the phase that of serving alone. The peak is read after a fixed
	// number of responses, not at the end: on cold-gen the closure
	// tables grow with every fresh module, so a peak over a fixed time
	// would grow with the request rate.
	if err := resetPeak(srv.pid()); err != nil {
		return phaseResult{}, nil, before, before, err
	}
	var peak atomic.Int64
	readPeak := func() {
		if v, err := peakResident(srv.pid()); err == nil {
			peak.Store(v)
		}
	}
	stop, done := make(chan struct{}), make(chan sampled)
	var quiet atomic.Int64
	var hold sync.RWMutex
	go sampleProc(srv.pid(), e.cal, &hold, stop, done, &quiet)
	client := newClient(e.w.clients)
	res := drive(client, srv.base, phase{
		reqs: e.reqs, clients: e.w.clients, dur: d, wrap: e.w.wrap,
		extend:  func() bool { return quiet.Load() < minQuiet },
		atCount: peakRequests, onCount: readPeak,
		hold: &hold, wantHit: boolp(e.w.hit), replay: e.recorded,
	})
	close(stop)
	smp := <-done
	pauses := smp.pauses
	client.CloseIdleConnections()
	if smp.err != nil {
		return res, pauses, before, before, smp.err
	}
	if res.peakRSS = peak.Load(); res.peakRSS == 0 {
		if res.peakRSS, err = peakResident(srv.pid()); err != nil {
			return res, pauses, before, before, err
		}
	}
	after, err := srv.metrics()
	if err != nil {
		return res, pauses, before, after, err
	}
	out.absorb("timed", res)
	if !e.w.wrap && res.elapsed < d {
		out.violate("%s: the corpus of %d requests ran out after %v of %v; raise coldRate", e.w.name, len(e.reqs), res.elapsed.Round(time.Millisecond), d)
	}
	e.assertTiers(out, before.ModuleCache, after.ModuleCache, res.attempted)
	return res, pauses, before, after, nil
}

// assertTiers checks which cache tier served the timed phase, from the
// server's own counters. Each violation is one failed operation.
func (e *env) assertTiers(out *outcome, b, a csp.ModuleCacheStats, n int) {
	misses := a.Misses - b.Misses
	storeHits := a.StoreHits - b.StoreHits
	compiles := misses - storeHits
	puts := a.StorePuts - b.StorePuts
	switch e.w.name {
	case "hot-corpus":
		if misses != 0 {
			out.violate("hot-corpus: %d module-cache misses in the timed phase, want 0", misses)
		}
	case "cold-gen":
		if compiles != uint64(n) {
			out.violate("cold-gen: %d compiles for %d requests", compiles, n)
		}
	case "warm-restart":
		if storeHits != uint64(n) {
			out.violate("warm-restart: %d store hits for %d requests", storeHits, n)
		}
		if compiles != 0 {
			out.violate("warm-restart: %d compiles in the timed phase, want 0", compiles)
		}
		if puts != 0 {
			out.violate("warm-restart: %d store puts in the timed phase, want 0", puts)
		}
	}
}

// endToEnd is the untraced run: set-up times, then one timed phase.
func (e *env) endToEnd(out *outcome) error {
	srv, setups, err := e.prepare(out, e.w.setups)
	if err != nil {
		return err
	}
	defer srv.stop()
	res, pauses, _, _, err := e.timedPhase(out, srv, time.Duration(e.o.seconds)*time.Second)
	if err != nil {
		return err
	}
	n := res.completed()
	if n == 0 {
		return fmt.Errorf("no request completed: %v", res.errs)
	}
	// The timed figures are scaled by the host's speed over all the
	// phase's calibrations, setup_s by that over all the set-ups'.
	var cal, setupCal calRun
	for _, p := range pauses {
		cal = cal.add(p.cal)
	}
	st := summarize(windows(res, pauses), cal.speed())
	var setupRaw []float64
	for _, s := range setups {
		setupRaw = append(setupRaw, s.s)
		setupCal = setupCal.add(s.cal)
	}
	out.set("setup_s", median(setupRaw)*setupCal.speed(), "s")
	out.set("req_per_s", st.scaled.reqPerS, "1/s")
	out.set("latency_p50_ms", st.scaled.p50, "ms")
	out.set("latency_p99_ms", st.scaled.p99, "ms")
	out.set("cpu_ms_per_req", st.scaled.cpuPerReq, "ms")
	out.set("peak_rss_mb", float64(res.peakRSS)/(1<<20), "MiB")
	// The figures as measured, before scaling to the reference speed.
	out.notes["raw_setup_s"] = median(setupRaw)
	out.notes["raw_req_per_s"] = st.raw.reqPerS
	out.notes["raw_latency_p50_ms"] = st.raw.p50
	out.notes["raw_latency_p99_ms"] = st.raw.p99
	out.notes["raw_cpu_ms_per_req"] = st.raw.cpuPerReq
	out.notes["host_speed"] = st.speed
	out.notes["host_speed_setup"] = setupCal.speed()
	out.notes["server_cpu_in_pauses"] = pauseCPU(pauses)
	out.notes["host_steal_mean"] = st.stealMean
	out.notes["host_steal_max"] = st.stealMax
	out.notes["timed_s"] = res.elapsed.Seconds()
	out.windows = st.rows
	out.samples["latency"] = n
	out.samples["windows"] = st.windows
	out.samples["quiet_windows"] = st.quiet
	out.samples["p99_groups"] = st.scaled.p99Groups
	out.samples["setup"] = len(setups)
	return nil
}
