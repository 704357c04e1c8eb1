// Per-module result caching. The engines are deterministic over the
// sampled domains (EngineRuntime excepted), so a (engine, bound, process)
// triple fully determines a result: resident hosts record each computed
// result on the Module and serve repeats — and artifact-store warm boots —
// without touching the engines. These caches are what the artifact store
// persists; CachedTraces on a deferred module is the path that answers a
// request without ever parsing the source.
package csp

import (
	"sync"
	"sync/atomic"

	"cspsat/internal/model"
)

// traceResultKey identifies one deterministic trace computation.
type traceResultKey struct {
	engine  Engine
	depth   int
	process string
}

// refineResultKey identifies one deterministic refinement verdict: the
// semantic model is part of the key because the same (impl, spec, depth)
// triple can hold under traces and fail under failures.
type refineResultKey struct {
	model model.Model
	depth int
	impl  string
	spec  string
}

// resultsCache is the per-Module memo of deterministic results. All maps
// are lazily allocated; values are treated as immutable once stored.
type resultsCache struct {
	mu      sync.Mutex
	traces  map[traceResultKey]*TraceResult
	checks  map[int][]AssertResultJSON
	proves  map[int][]ProveResultJSON
	refines map[refineResultKey]RefineResultJSON
	// onResult, when set, fires after each newly stored result (outside
	// the mutex). The module cache uses it to persist the module's
	// artifact; see ModuleCache.SetStore.
	onResult func()
	// wire is the budget of the ModuleCache the module is resident in;
	// nil outside one, and then no listing is memoized.
	wire *wireBudget
}

func (rc *resultsCache) setOnResult(f func()) {
	rc.mu.Lock()
	rc.onResult = f
	rc.mu.Unlock()
}

// attachWire charges the module's memoized listings to b from now on.
func (rc *resultsCache) attachWire(b *wireBudget) {
	rc.mu.Lock()
	rc.wire = b
	rc.mu.Unlock()
}

// detachWire drops the memoized listings of the module's trace results
// and gives their bytes back to the budget they were charged to.
func (rc *resultsCache) detachWire() {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.wire == nil {
		return
	}
	n := 0
	for _, r := range rc.traces {
		if r.owner.Load() != rc {
			continue
		}
		for i := range r.wire {
			if w := r.wire[i].Swap(nil); w != nil {
				n += len(w.body)
			}
		}
	}
	rc.wire.release(n)
	rc.wire = nil
}

// memoize keeps w in slot if r's owner is resident in a ModuleCache and
// the budget has room, unless the slot already holds a listing encoded
// under a limit at least as wide. Requests can only lower the server's
// cap, so the listing kept in the end is the default one, and a sweep of
// lower limits never replaces it. Holding the owner's mutex orders this
// with detachWire, so no listing outlives its module's residency.
func (r *TraceResult) memoize(slot *atomic.Pointer[wireListing], w *wireListing) {
	rc := r.owner.Load()
	if rc == nil {
		return
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	old := slot.Load()
	if rc.wire == nil || old != nil && !wider(w.limit, old.limit) || !rc.wire.reserve(len(w.body)) {
		return
	}
	slot.Store(w)
	if old != nil {
		rc.wire.release(len(old.body))
	}
}

// wider reports whether listing limit a lists more than limit b, where a
// limit <= 0 is unlimited.
func wider(a, b int) bool {
	if a <= 0 {
		return b > 0
	}
	return b > 0 && a > b
}

func (rc *resultsCache) notify() {
	rc.mu.Lock()
	f := rc.onResult
	rc.mu.Unlock()
	if f != nil {
		f()
	}
}

// CachedTraces returns the recorded trace result for (engine, depth,
// process), if any. process is the name the result was stored under
// (StoreTraces); depth 0 is normalized to DefaultDepth like everywhere
// else.
func (m *Module) CachedTraces(engine Engine, depth int, process string) (*TraceResult, bool) {
	if depth <= 0 {
		depth = DefaultDepth
	}
	m.res.mu.Lock()
	defer m.res.mu.Unlock()
	r, ok := m.res.traces[traceResultKey{engine, depth, process}]
	return r, ok
}

// StoreTraces records a computed trace result for later CachedTraces hits
// (and, when the module came through a store-backed ModuleCache, persists
// it). EngineRuntime results are sampled walks, not functions of the
// source, and are never recorded.
func (m *Module) StoreTraces(engine Engine, depth int, process string, r *TraceResult) {
	if engine == EngineRuntime || r == nil {
		return
	}
	if depth <= 0 {
		depth = DefaultDepth
	}
	key := traceResultKey{engine, depth, process}
	m.res.mu.Lock()
	if _, ok := m.res.traces[key]; ok {
		m.res.mu.Unlock()
		return
	}
	if m.res.traces == nil {
		m.res.traces = map[traceResultKey]*TraceResult{}
	}
	m.res.traces[key] = r
	r.owner.CompareAndSwap(nil, &m.res)
	m.res.mu.Unlock()
	m.res.notify()
}

// CachedCheck returns the recorded CheckAll verdicts for a depth, in the
// stable wire encoding.
func (m *Module) CachedCheck(depth int) ([]AssertResultJSON, bool) {
	if depth <= 0 {
		depth = DefaultDepth
	}
	m.res.mu.Lock()
	defer m.res.mu.Unlock()
	r, ok := m.res.checks[depth]
	return r, ok
}

// StoreCheck records CheckAll verdicts for a depth. The slice is retained;
// callers must not mutate it afterwards.
func (m *Module) StoreCheck(depth int, results []AssertResultJSON) {
	if results == nil {
		return
	}
	if depth <= 0 {
		depth = DefaultDepth
	}
	m.res.mu.Lock()
	if _, ok := m.res.checks[depth]; ok {
		m.res.mu.Unlock()
		return
	}
	if m.res.checks == nil {
		m.res.checks = map[int][]AssertResultJSON{}
	}
	m.res.checks[depth] = results
	m.res.mu.Unlock()
	m.res.notify()
}

// CachedProve returns the recorded ProveAsserts verdicts for a validity
// bound, in the stable wire encoding.
func (m *Module) CachedProve(maxLen int) ([]ProveResultJSON, bool) {
	m.res.mu.Lock()
	defer m.res.mu.Unlock()
	r, ok := m.res.proves[maxLen]
	return r, ok
}

// StoreProve records ProveAsserts verdicts for a validity bound. The slice
// is retained; callers must not mutate it afterwards.
func (m *Module) StoreProve(maxLen int, results []ProveResultJSON) {
	if results == nil {
		return
	}
	m.res.mu.Lock()
	if _, ok := m.res.proves[maxLen]; ok {
		m.res.mu.Unlock()
		return
	}
	if m.res.proves == nil {
		m.res.proves = map[int][]ProveResultJSON{}
	}
	m.res.proves[maxLen] = results
	m.res.mu.Unlock()
	m.res.notify()
}

// CachedRefine returns the recorded refinement verdict for (model, depth,
// impl, spec), in the stable wire encoding. impl and spec are the
// canonical process renderings the verdict was stored under.
func (m *Module) CachedRefine(mdl Model, depth int, impl, spec string) (RefineResultJSON, bool) {
	if depth <= 0 {
		depth = DefaultDepth
	}
	m.res.mu.Lock()
	defer m.res.mu.Unlock()
	r, ok := m.res.refines[refineResultKey{mdl, depth, impl, spec}]
	return r, ok
}

// StoreRefine records a refinement verdict for later CachedRefine hits
// (and, when the module came through a store-backed ModuleCache, persists
// it).
func (m *Module) StoreRefine(mdl Model, depth int, impl, spec string, r RefineResultJSON) {
	if depth <= 0 {
		depth = DefaultDepth
	}
	key := refineResultKey{mdl, depth, impl, spec}
	m.res.mu.Lock()
	if _, ok := m.res.refines[key]; ok {
		m.res.mu.Unlock()
		return
	}
	if m.res.refines == nil {
		m.res.refines = map[refineResultKey]RefineResultJSON{}
	}
	m.res.refines[key] = r
	m.res.mu.Unlock()
	m.res.notify()
}

// CachedResultCount reports how many deterministic results the module has
// recorded (trace sets + check blocks + prove blocks + refinement
// verdicts).
func (m *Module) CachedResultCount() int {
	m.res.mu.Lock()
	defer m.res.mu.Unlock()
	return len(m.res.traces) + len(m.res.checks) + len(m.res.proves) + len(m.res.refines)
}
