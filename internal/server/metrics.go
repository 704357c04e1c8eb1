// Observability: request counters and latency per endpoint, admission
// pressure, the module cache, and the closure layer's intern/memo
// statistics — served as JSON at /metrics and published once to expvar
// (GET /debug/vars) under the key "cspserved".
package server

import (
	"expvar"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cspsat/internal/closure/frozen"
	"cspsat/pkg/csp"
)

// endpointCounters accumulates one endpoint's request count and latency.
type endpointCounters struct {
	count        atomic.Uint64
	errors       atomic.Uint64
	latencySumUS atomic.Int64
	latencyMaxUS atomic.Int64
}

type metrics struct {
	endpoints map[string]*endpointCounters // fixed keys, no lock needed
	models    map[string]*atomic.Uint64    // fixed keys, no lock needed

	mu       sync.Mutex
	statuses map[int]uint64

	admissionWaits   atomic.Uint64
	admissionRefused atomic.Uint64
}

func newMetrics() *metrics {
	m := &metrics{
		endpoints: map[string]*endpointCounters{},
		models:    map[string]*atomic.Uint64{},
		statuses:  map[int]uint64{},
	}
	for _, kind := range []string{"traces", "check", "prove", "refine", "batch", "version"} {
		m.endpoints[kind] = &endpointCounters{}
	}
	for _, mdl := range csp.KnownModels() {
		m.models[mdl.String()] = &atomic.Uint64{}
	}
	return m
}

// recordModel counts one model-parameterised verification (a check or
// refine execution, batch items included) against its semantic model.
func (m *metrics) recordModel(mdl csp.Model) {
	if c, ok := m.models[mdl.String()]; ok {
		c.Add(1)
	}
}

func (m *metrics) record(kind string, status int, elapsed time.Duration) {
	if ep, ok := m.endpoints[kind]; ok {
		ep.count.Add(1)
		if status >= 400 {
			ep.errors.Add(1)
		}
		us := elapsed.Microseconds()
		ep.latencySumUS.Add(us)
		for {
			max := ep.latencyMaxUS.Load()
			if us <= max || ep.latencyMaxUS.CompareAndSwap(max, us) {
				break
			}
		}
	}
	m.mu.Lock()
	m.statuses[status]++
	m.mu.Unlock()
}

// EndpointSnapshot is one endpoint's cumulative counters. Latency is in
// µs: a result-cache hit takes well under a millisecond.
type EndpointSnapshot struct {
	Count        uint64 `json:"count"`
	Errors       uint64 `json:"errors"`
	LatencySumUS int64  `json:"latency_sum_us"`
	LatencyMaxUS int64  `json:"latency_max_us"`
}

// Snapshot is the /metrics document.
type Snapshot struct {
	UptimeMS         int64                       `json:"uptime_ms"`
	Ready            bool                        `json:"ready"`
	Draining         bool                        `json:"draining"`
	Inflight         int                         `json:"inflight"`
	MaxInflight      int                         `json:"max_inflight"`
	AdmissionWaits   uint64                      `json:"admission_waits"`
	AdmissionRefused uint64                      `json:"admission_refused"`
	Endpoints        map[string]EndpointSnapshot `json:"endpoints"`
	// Models counts model-parameterised verifications (check and refine,
	// batch items included) per semantic model.
	Models      map[string]uint64    `json:"models"`
	Statuses    map[string]uint64    `json:"statuses"`
	ModuleCache csp.ModuleCacheStats `json:"module_cache"`
	Closure     csp.CacheStats       `json:"closure"`
	// Frozen reports the zero-copy arena tier: arenas mapped and their
	// resident bytes, read hits served without a thaw, and thaw counts
	// (each thaw re-interns a stored trie on a write path).
	Frozen frozen.Stats `json:"frozen"`
	// Journal reports the request log, when one is attached.
	Journal *JournalSnapshot `json:"journal,omitempty"`
}

// JournalSnapshot is the /metrics view of the request journal.
type JournalSnapshot struct {
	Path    string `json:"path"`
	Records int    `json:"records"`
	Bytes   int64  `json:"bytes"`
}

// Snapshot assembles the current metrics document.
func (s *Server) Snapshot() Snapshot {
	snap := Snapshot{
		UptimeMS:         time.Since(s.start).Milliseconds(),
		Ready:            s.Ready(),
		Draining:         s.Draining(),
		Inflight:         len(s.admit),
		MaxInflight:      cap(s.admit),
		AdmissionWaits:   s.metrics.admissionWaits.Load(),
		AdmissionRefused: s.metrics.admissionRefused.Load(),
		Endpoints:        map[string]EndpointSnapshot{},
		Models:           map[string]uint64{},
		Statuses:         map[string]uint64{},
		ModuleCache:      s.cache.Stats(),
		Closure:          csp.Stats(),
		Frozen:           frozen.Snapshot(),
	}
	if s.journal != nil {
		n, b := s.journal.Stats()
		snap.Journal = &JournalSnapshot{Path: s.journal.Path(), Records: n, Bytes: b}
	}
	keys := make([]string, 0, len(s.metrics.endpoints))
	for k := range s.metrics.endpoints {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ep := s.metrics.endpoints[k]
		snap.Endpoints[k] = EndpointSnapshot{
			Count:        ep.count.Load(),
			Errors:       ep.errors.Load(),
			LatencySumUS: ep.latencySumUS.Load(),
			LatencyMaxUS: ep.latencyMaxUS.Load(),
		}
	}
	for name, c := range s.metrics.models {
		snap.Models[name] = c.Load()
	}
	s.metrics.mu.Lock()
	for code, n := range s.metrics.statuses {
		snap.Statuses[strconv.Itoa(code)] = n
	}
	s.metrics.mu.Unlock()
	return snap
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.Draining() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":    status,
		"uptime_ms": time.Since(s.start).Milliseconds(),
	})
}

// handleReadyz is the readiness probe, distinct from /healthz liveness: a
// store-backed server is not ready until its warm boot finishes, and any
// server stops being ready once it starts draining. Load balancers route
// on this; /healthz keeps answering "am I alive" throughout.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	status := "ready"
	code := http.StatusOK
	switch {
	case !s.Ready():
		status = "starting"
		code = http.StatusServiceUnavailable
	case s.Draining():
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":    status,
		"uptime_ms": time.Since(s.start).Milliseconds(),
	})
}

// expvar's registry is global and panics on duplicate names, so only the
// process's first Server publishes there (tests construct many Servers);
// /metrics always reflects its own Server.
var expvarOnce sync.Once

func publishExpvar(s *Server) {
	expvarOnce.Do(func() {
		expvar.Publish("cspserved", expvar.Func(func() any { return s.Snapshot() }))
	})
}
