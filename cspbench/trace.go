package main

// The traced run. Per-layer numbers come from two sources:
//
//   - /metrics deltas around a timed HTTP phase on the real cspserved
//     process (cache, closure, frozen, store and journal counters);
//   - an in-process replay of the same inputs that calls, one by one, the
//     public functions the /v1 handler calls, with a span around each
//     call. Spans are recorded here, in the benchmark; the program itself
//     carries no tracing. They are kept in memory and written out at the
//     end of the run.
//
// The replay interleaves three modes over consecutive requests: the
// whole in-process handler (Handler().ServeHTTP, one span), the traced
// phase replay, and the same phase replay with tracing off. The first
// gives server.self_us (handler time minus the replayed phases), the last
// two the tracing overhead.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"cspsat/internal/assertion"
	"cspsat/internal/core"
	"cspsat/internal/journal"
	"cspsat/internal/parser"
	"cspsat/internal/server"
	"cspsat/internal/value"
	"cspsat/pkg/csp"
)

// span is one timed call. Spans of one request share Req; Parent is the
// ID of the span that caused it (-1 for a request's root).
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans in memory. A nil tracer records nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func (t *tracer) begin(req, parent int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Req: req, ID: id, Parent: parent, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int, tag string) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.spans[id].Tag = tag
	t.mu.Unlock()
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Server defaults the replay mirrors (cspserved's flag defaults).
const (
	defaultDepth     = 8
	defaultNat       = 3
	defaultWorkers   = 1
	defaultMaxTraces = 10000
	defaultMaxLen    = 3
)

// wireRequest mirrors the server's request body, decoded the way the
// handler decodes it (unknown fields refused).
type wireRequest struct {
	Kind      string `json:"kind,omitempty"`
	Source    string `json:"source"`
	Process   string `json:"process,omitempty"`
	Engine    string `json:"engine,omitempty"`
	Model     string `json:"model,omitempty"`
	Impl      string `json:"impl,omitempty"`
	Spec      string `json:"spec,omitempty"`
	Depth     int    `json:"depth,omitempty"`
	Nat       int    `json:"nat,omitempty"`
	Workers   int    `json:"workers,omitempty"`
	MaxOnly   bool   `json:"max_only,omitempty"`
	MaxTraces int    `json:"max_traces,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
	MaxEvents int    `json:"max_events,omitempty"`
	MaxLen    int    `json:"maxlen,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// wireResponse mirrors the server's response body.
type wireResponse struct {
	Schema    int                     `json:"schema"`
	Kind      string                  `json:"kind"`
	SpecHash  string                  `json:"spec_hash,omitempty"`
	CacheHit  bool                    `json:"cache_hit"`
	OK        bool                    `json:"ok"`
	Traces    *csp.TraceSetJSON       `json:"traces,omitempty"`
	Asserts   []csp.AssertResultJSON  `json:"asserts,omitempty"`
	Proofs    []csp.ProveResultJSON   `json:"proofs,omitempty"`
	Refine    *csp.RefineResultJSON   `json:"refine,omitempty"`
	Progress  []csp.ProgressEventJSON `json:"progress,omitempty"`
	ElapsedMS int64                   `json:"elapsed_ms"`
}

// replayer runs requests through an in-process server's module cache,
// phase by phase.
type replayer struct {
	cache   *csp.ModuleCache
	journal *journal.Writer // nil when the workload runs without one

	resultProbes, resultHits int
}

// replay serves one request body the way the handler's execute does and
// returns the encoded response. The root span "replay" covers exactly the
// handler's work; after it ends, a compile-tier load is re-measured as
// parse and elaborate, and a store-tier load as the store read, under
// spans whose parent is the load.
func (rp *replayer) replay(tr *tracer, req int, r *request) ([]byte, error) {
	ctx := context.Background()
	root := tr.begin(req, -1, "replay")
	start := time.Now()

	sp := tr.begin(req, root, "wire.decode")
	var in wireRequest
	dec := json.NewDecoder(bytes.NewReader(r.body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&in)
	tr.end(sp, "")
	if err != nil {
		return nil, err
	}
	kind := strings.TrimPrefix(r.path, "/v1/")
	nat, depth := in.Nat, in.Depth
	if nat <= 0 {
		nat = defaultNat
	}
	if depth <= 0 {
		depth = defaultDepth
	}

	st0 := rp.cache.Stats()
	load := tr.begin(req, root, "cache.load")
	mod, hash, hit, err := rp.cache.Load(ctx, in.Source, csp.Options{NatWidth: nat})
	st1 := rp.cache.Stats()
	tier := "mem"
	switch {
	case !hit:
		tier = "compile"
	case st1.StoreHits > st0.StoreHits:
		tier = "store"
	}
	tr.end(load, tier)
	if err != nil {
		return nil, err
	}

	resp := &wireResponse{Schema: csp.WireSchema, Kind: kind, SpecHash: hash, CacheHit: hit}
	var tracker csp.ProgressTracker
	if err := rp.execute(ctx, tr, req, root, kind, &in, mod, nat, depth, &tracker, resp); err != nil {
		return nil, err
	}

	sp = tr.begin(req, root, "wire.encode")
	resp.Progress = csp.EncodeProgress(tracker.Snapshot())
	resp.ElapsedMS = time.Since(start).Milliseconds()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	err = enc.Encode(resp)
	tr.end(sp, "")
	if err != nil {
		return nil, err
	}
	out := buf.Bytes()

	if rp.journal != nil {
		sp = tr.begin(req, root, "journal.append")
		err = rp.journal.Append(journal.Record{
			Time: time.Now().UnixNano(), Method: "POST", Path: r.path, Status: 200,
			Request: r.body, RespDigest: journal.Digest(out), RespBytes: len(out),
		})
		tr.end(sp, "")
		if err != nil {
			return nil, err
		}
	}
	tr.end(root, "")

	if tr != nil {
		switch tier {
		case "compile":
			sp = tr.begin(req, load, "parser.parse")
			f, err := parser.Parse(in.Source)
			tr.end(sp, "")
			if err == nil {
				sp = tr.begin(req, load, "core.elaborate")
				core.FromModule(f.Module, core.Options{NatWidth: nat})
				tr.end(sp, "")
			}
		case "store":
			sp = tr.begin(req, load, "store.getmapped")
			_, _, err := rp.cache.Store().GetMapped(hash)
			tr.end(sp, "")
			if err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// execute is the engine half of the handler: result cache first, then the
// engine, then the result store (which persists the artifact when a store
// is attached).
func (rp *replayer) execute(ctx context.Context, tr *tracer, req, root int, kind string, in *wireRequest,
	mod *csp.Module, nat, depth int, tracker *csp.ProgressTracker, resp *wireResponse) error {
	probe := func(hit bool) {
		rp.resultProbes++
		if hit {
			rp.resultHits++
		}
	}
	switch kind {
	case "traces":
		engine, err := csp.ParseEngine(in.Engine)
		if err != nil {
			return err
		}
		limit := defaultMaxTraces
		if in.MaxTraces > 0 && in.MaxTraces < limit {
			limit = in.MaxTraces
		}
		sp := tr.begin(req, root, "cache.result_get")
		res, ok := mod.CachedTraces(engine, depth, in.Process)
		tr.end(sp, "")
		probe(ok)
		if !ok {
			p, err := mod.Proc(in.Process)
			if err != nil {
				return err
			}
			name := "op.explore"
			if engine == csp.EngineDenote {
				name = "sem.denote"
			}
			sp = tr.begin(req, root, name)
			res, err = mod.Traces(ctx, p, csp.EngineOptions{Engine: engine, Depth: depth, Workers: defaultWorkers, Progress: tracker.Func()})
			tr.end(sp, "")
			if err != nil {
				return err
			}
			sp = tr.begin(req, root, "cache.result_put")
			mod.StoreTraces(engine, depth, in.Process, res)
			tr.end(sp, "")
		}
		sp = tr.begin(req, root, "wire.encode")
		set := csp.EncodeTraceSet(res, in.MaxOnly, limit)
		tr.end(sp, "")
		resp.Traces, resp.OK = &set, true
	case "check":
		mdl, err := csp.ParseModel(in.Model)
		if err != nil {
			return err
		}
		var encoded []csp.AssertResultJSON
		ok := false
		if mdl == csp.ModelTraces {
			sp := tr.begin(req, root, "cache.result_get")
			encoded, ok = mod.CachedCheck(depth)
			tr.end(sp, "")
		}
		probe(ok)
		if !ok {
			sp := tr.begin(req, root, "check.checkall")
			results, err := mod.CheckAll(ctx, csp.CheckOptions{Model: mdl, Depth: depth, Workers: defaultWorkers, Progress: tracker.Func()})
			tr.end(sp, "")
			if err != nil {
				return err
			}
			sp = tr.begin(req, root, "wire.encode")
			encoded = csp.EncodeAssertResults(results)
			tr.end(sp, "")
			if mdl == csp.ModelTraces {
				sp = tr.begin(req, root, "cache.result_put")
				mod.StoreCheck(depth, encoded)
				tr.end(sp, "")
			}
		}
		resp.Asserts, resp.OK = encoded, true
		for _, a := range encoded {
			resp.OK = resp.OK && a.OK
		}
	case "refine":
		mdl, err := csp.ParseModel(in.Model)
		if err != nil {
			return err
		}
		sp := tr.begin(req, root, "cache.result_get")
		res, ok := mod.CachedRefine(mdl, depth, in.Impl, in.Spec)
		tr.end(sp, "")
		probe(ok)
		if !ok {
			impl, err := mod.Proc(in.Impl)
			if err != nil {
				return err
			}
			spec, err := mod.Proc(in.Spec)
			if err != nil {
				return err
			}
			name := "check.refine"
			if mdl == csp.ModelFailures {
				name = "failures.refine"
			}
			sp = tr.begin(req, root, name)
			r, err := mod.Refine(ctx, impl, spec, csp.CheckOptions{Model: mdl, Depth: depth, Workers: defaultWorkers})
			tr.end(sp, "")
			if err != nil {
				return err
			}
			sp = tr.begin(req, root, "wire.encode")
			res = csp.EncodeRefineResult(r.RefineResult)
			tr.end(sp, "")
			sp = tr.begin(req, root, "cache.result_put")
			mod.StoreRefine(mdl, depth, in.Impl, in.Spec, res)
			tr.end(sp, "")
		}
		resp.Refine, resp.OK = &res, res.OK
	case "prove":
		maxLen := in.MaxLen
		if maxLen <= 0 {
			maxLen = defaultMaxLen
		}
		sp := tr.begin(req, root, "cache.result_get")
		encoded, ok := mod.CachedProve(maxLen)
		tr.end(sp, "")
		probe(ok)
		if !ok {
			sp = tr.begin(req, root, "proof.prove")
			results, err := mod.ProveAsserts(ctx, csp.CheckOptions{
				Workers:  defaultWorkers,
				Progress: tracker.Func(),
				Validity: &assertion.ValidityConfig{
					MaxLen: maxLen,
					DefaultDom: value.Union{
						A: value.Nat{SampleWidth: nat},
						B: value.NewEnum(value.Sym("ACK"), value.Sym("NACK")),
					},
				},
			}, nil)
			tr.end(sp, "")
			if err != nil {
				return err
			}
			sp = tr.begin(req, root, "wire.encode")
			encoded = csp.EncodeProveResults(results)
			tr.end(sp, "")
			sp = tr.begin(req, root, "cache.result_put")
			mod.StoreProve(maxLen, encoded)
			tr.end(sp, "")
		}
		resp.Proofs, resp.OK = encoded, true
		for _, p := range encoded {
			resp.OK = resp.OK && p.OK
		}
	default:
		return fmt.Errorf("unknown kind %q", kind)
	}
	return nil
}

// serve runs one request through the in-process handler and returns the
// status and body.
func serve(h *server.Server, tr *tracer, req int, r *request) (int, []byte) {
	hr := httptest.NewRequest("POST", r.path, bytes.NewReader(r.body))
	rec := httptest.NewRecorder()
	sp := tr.begin(req, -1, "server.serve")
	h.Handler().ServeHTTP(rec, hr)
	tr.end(sp, "")
	return rec.Code, rec.Body.Bytes()
}

// layers is the traced run: a timed HTTP phase on the real server for
// /metrics deltas, then the in-process replay.
func (e *env) layers(out *outcome) error {
	half := time.Duration(e.o.seconds) * time.Second / 2
	srv, _, err := e.prepare(out, 1)
	if err != nil {
		return err
	}
	res, _, b, a, err := e.timedPhase(out, srv, half)
	srv.stop()
	if err != nil {
		return err
	}
	n := res.completed()
	if n == 0 {
		return fmt.Errorf("no request completed: %v", res.errs)
	}
	e.counterMetrics(out, b, a, n)
	out.set("trace.http_req_per_s", float64(n)/res.elapsed.Seconds(), "1/s")
	out.samples["http"] = n
	return e.replayRun(out, half)
}

// counterMetrics derives the per-layer counters from /metrics deltas over
// n requests. Counts are per request so runs of different lengths compare.
func (e *env) counterMetrics(out *outcome, b, a server.Snapshot, n int) {
	per := func(x, y uint64) float64 { return float64(y-x) / float64(n) }
	ratio := func(hits, misses uint64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	}
	bm, am := b.ModuleCache, a.ModuleCache
	out.set("server.admission_waits", per(b.AdmissionWaits, a.AdmissionWaits), "1/req")
	out.set("server.admission_refused", per(b.AdmissionRefused, a.AdmissionRefused), "1/req")
	out.set("cache.hit_ratio", ratio(am.Hits-bm.Hits, am.Misses-bm.Misses), "ratio")
	out.set("cache.evicted_count", per(bm.Evicted, am.Evicted), "1/req")
	out.set("cache.coalesced_count", per(bm.Coalesced, am.Coalesced), "1/req")
	bc, ac := b.Closure, a.Closure
	out.set("closure.memo_hit_ratio", ratio(ac.MemoHits-bc.MemoHits, ac.MemoMisses-bc.MemoMisses), "ratio")
	out.set("closure.intern_miss_count", per(bc.InternMisses, ac.InternMisses), "1/req")
	out.set("closure.interned_nodes", float64(ac.InternedNodes), "count")
	out.set("closure.evicted_count", per(bc.Evicted, ac.Evicted), "1/req")
	// The timed phases of these workloads write no artifacts; the store
	// write path runs in warm-restart's recording pass, over its corpus.
	if w := e.recordWrites; w.StorePuts > 0 {
		out.set("store.put_bytes", float64(w.StoreBytesWritten)/float64(w.StorePuts), "B")
		out.set("store.puts_per_req", float64(w.StorePuts)/float64(len(e.reqs)), "1/req")
	} else {
		out.set("store.put_bytes", 0, "B")
		out.set("store.puts_per_req", 0, "1/req")
	}
	out.set("frozen.hit_count", float64(a.Frozen.Hits-b.Frozen.Hits)/float64(n), "1/req")
	out.set("frozen.thaw_count", float64(a.Frozen.Thaws-b.Frozen.Thaws)/float64(n), "1/req")
	perRecord := 0.0
	if a.Journal != nil && b.Journal != nil && a.Journal.Records > b.Journal.Records {
		perRecord = float64(a.Journal.Bytes-b.Journal.Bytes) / float64(a.Journal.Records-b.Journal.Records)
	}
	out.set("journal.bytes_per_record", perRecord, "B")
}

// replayRun builds an in-process server configured like the spawned one,
// brings it to the same state the timed phase starts from (warm-up,
// recorded store, flush), and runs the interleaved replay for d.
func (e *env) replayRun(out *outcome, d time.Duration) error {
	dir := filepath.Join(e.dir, "inproc")
	cfg := server.Config{Depth: defaultDepth, NatWidth: defaultNat, Workers: defaultWorkers}
	if e.w.store {
		cfg.StoreDir = filepath.Join(dir, "store")
	}
	if e.w.journal {
		cfg.JournalDir = filepath.Join(dir, "journal")
	}
	debug.SetGCPercent(e.o.gcPercent)
	tr := &tracer{t0: time.Now()}
	check := func(name string, status int, data []byte, r *request, wantHit *bool, i int) {
		out.attempted++
		v, err := gate(status, data, &r.want, wantHit)
		if err == nil && e.recorded != nil && v != e.recorded[i] {
			err = fmt.Errorf("verdict %q differs from the recorded %q", v, e.recorded[i])
		}
		if err != nil {
			out.failed++
			if len(out.errs) < 10 {
				out.errs = append(out.errs, fmt.Sprintf("%s #%d: %v", name, i, err))
			}
		}
	}
	ctx := context.Background()
	if e.w.name == "warm-restart" {
		// The recording pass is traced: it is where this workload runs the
		// compile path and the store writes.
		rec := server.New(cfg)
		rpRec := &replayer{cache: rec.Cache()}
		for i := range e.reqs {
			data, err := rpRec.replay(tr, -1-i, &e.reqs[i])
			if err != nil {
				return fmt.Errorf("recording replay: %v", err)
			}
			check("inproc-record", 200, data, &e.reqs[i], boolp(false), i)
		}
		if err := rec.Close(); err != nil {
			return err
		}
	}
	h := server.New(cfg)
	defer h.Close()
	t0 := time.Now()
	loaded, _ := h.WarmBoot(ctx)
	warm := 0.0
	if loaded > 0 {
		warm = float64(time.Since(t0).Microseconds()) / float64(loaded)
	}
	out.set("store.warmboot_us_per_artifact", warm, "us")

	rp := &replayer{cache: h.Cache()}
	if e.w.journal {
		jw, err := journal.Create(filepath.Join(dir, "replay.cspj"), journal.Meta{
			WireSchema: csp.WireSchema, Go: runtime.Version(), Start: time.Now().UnixNano(),
		})
		if err != nil {
			return err
		}
		defer jw.Close()
		rp.journal = jw
	}
	switch e.w.name {
	case "hot-corpus":
		// The warm-up is traced: it is where the engines (and the prover)
		// run on this workload.
		for i := range e.warmup {
			data, err := rp.replay(tr, -1-i, &e.warmup[i])
			if err != nil {
				return fmt.Errorf("warm-up replay: %v", err)
			}
			check("inproc-warm-up", 200, data, &e.warmup[i], nil, i)
		}
	case "warm-restart":
		for i := range e.reqs {
			data, err := rp.replay(nil, 0, &e.reqs[i])
			if err != nil {
				return fmt.Errorf("flush replay: %v", err)
			}
			check("inproc-flush", 200, data, &e.reqs[i], boolp(true), i)
		}
	}
	rp.resultProbes, rp.resultHits = 0, 0
	traced := len(tr.spans)

	// The interleaved loop. The mode of request k shifts by one on every
	// pass over a wrapping corpus, so no request is tied to one mode.
	var took [3]time.Duration
	var count [3]int
	respBytes := 0
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for k := 0; time.Since(start) < d; k++ {
		i := k
		if e.w.wrap {
			i = k % len(e.reqs)
		} else if k >= len(e.reqs) {
			break
		}
		r := &e.reqs[i]
		mode := (k + k/len(e.reqs)) % 3
		t := time.Now()
		status := 200
		var data []byte
		var err error
		switch mode {
		case 0:
			status, data = serve(h, tr, k, r)
		case 1:
			data, err = rp.replay(tr, k, r)
		default:
			data, err = rp.replay(nil, k, r)
		}
		if mode != 1 {
			took[mode] += time.Since(t)
		}
		if err != nil {
			return fmt.Errorf("replay %s #%d: %v", r.path, i, err)
		}
		count[mode]++
		if mode == 1 {
			respBytes += len(data)
		}
		check(fmt.Sprintf("inproc-mode%d", mode), status, data, r, boolp(e.w.hit), i)
	}
	runtime.ReadMemStats(&ms1)

	// Aggregate the spans. The traced replay's own wall time is its root
	// span, which ends before the attribution re-measures begin.
	sum := map[string]time.Duration{}
	num := map[string]int{}
	for i := range tr.spans {
		s := &tr.spans[i]
		name := s.Name
		if name == "cache.load" {
			name += "." + s.Tag
		}
		sum[name] += s.dur()
		num[name]++
		if i >= traced && s.Name == "replay" {
			took[1] += s.dur()
		}
	}
	mean := func(name string) float64 {
		if num[name] == 0 {
			return 0
		}
		return float64(sum[name].Nanoseconds()) / 1e3 / float64(num[name])
	}
	for metric, name := range map[string]string{
		"wire.decode_us":        "wire.decode",
		"cache.load_us.mem":     "cache.load.mem",
		"cache.load_us.store":   "cache.load.store",
		"cache.load_us.compile": "cache.load.compile",
		"parser.parse_us":       "parser.parse",
		"core.elaborate_us":     "core.elaborate",
		"op.explore_us":         "op.explore",
		"sem.denote_us":         "sem.denote",
		"check.checkall_us":     "check.checkall",
		"check.refine_us":       "check.refine",
		"failures.refine_us":    "failures.refine",
		"proof.prove_us":        "proof.prove",
		"store.getmapped_us":    "store.getmapped",
		"journal.append_us":     "journal.append",
	} {
		out.set(metric, mean(name), "us")
	}
	// A request may encode in two steps (the verdict, then the body), so
	// wire.encode is reported per request rather than per span.
	encodeReqs := map[int]bool{}
	for i := range tr.spans {
		if tr.spans[i].Name == "wire.encode" {
			encodeReqs[tr.spans[i].Req] = true
		}
	}
	encodeUS := 0.0
	if len(encodeReqs) > 0 {
		encodeUS = float64(sum["wire.encode"].Nanoseconds()) / 1e3 / float64(len(encodeReqs))
	}
	out.set("wire.encode_us", encodeUS, "us")
	out.set("wire.resp_bytes", float64(respBytes)/float64(max(count[1], 1)), "B")
	storeUS := 0.0
	if e.w.store {
		storeUS = mean("cache.result_put")
	}
	out.set("store.put_us", storeUS, "us")
	ratio := 0.0
	if rp.resultProbes > 0 {
		ratio = float64(rp.resultHits) / float64(rp.resultProbes)
	}
	out.set("cache.result_hit_ratio", ratio, "ratio")

	rate := func(m int) float64 {
		if took[m] <= 0 {
			return 0
		}
		return float64(count[m]) / took[m].Seconds()
	}
	serveUS := float64(took[0].Nanoseconds()) / 1e3 / float64(max(count[0], 1))
	replayUS := float64(took[1].Nanoseconds()) / 1e3 / float64(max(count[1], 1))
	out.set("server.self_us", serveUS-replayUS, "us")
	out.set("trace.serve_req_per_s", rate(0), "1/s")
	out.set("trace.replay_req_per_s", rate(1), "1/s")
	out.set("trace.untraced_req_per_s", rate(2), "1/s")
	overhead := 0.0
	if rate(1) > 0 {
		overhead = (rate(2)/rate(1) - 1) * 100
	}
	out.set("trace.overhead_pct", overhead, "%")
	out.set("gc.cycles", float64(ms1.NumGC-ms0.NumGC), "count")
	out.set("gc.pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6, "ms")
	out.samples["replay.serve"] = count[0]
	out.samples["replay.traced"] = count[1]
	out.samples["replay.untraced"] = count[2]
	out.samples["spans"] = len(tr.spans)

	results := filepath.Join(e.o.work, "results")
	if err := os.MkdirAll(results, 0o755); err != nil {
		return err
	}
	return tr.write(filepath.Join(results, "spans-"+e.w.name+".jsonl"))
}
