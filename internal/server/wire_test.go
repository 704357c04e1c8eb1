package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sync"
	"testing"

	"cspsat/internal/server"
	"cspsat/pkg/csp"
)

// wireCase is one spec and root process of the byte-identity matrix.
type wireCase struct {
	spec, process string
	depth, nat    int
}

// wireCases covers all seven specs, at depths where both engines are
// quick.
var wireCases = []wireCase{
	{"buffers.csp", "buf1", 4, 2},
	{"copier.csp", "copier", 5, 2},
	{"multiplier.csp", "multiplier", 5, 2},
	{"nondet.csp", "flaky", 5, 2},
	{"philosophers.csp", "safe", 4, 2},
	{"protocol.csp", "protocol", 5, 2},
	{"tokenring.csp", "sys", 5, 2},
}

// truncating is a max_traces every listing of wireCases exceeds;
// defaultLimit is the server's MaxTraces default.
const (
	truncating   = 2
	defaultLimit = 10000
)

var elapsedRE = regexp.MustCompile(`"elapsed_ms":\d+`)

func normalise(body []byte) []byte {
	return elapsedRE.ReplaceAll(body, []byte(`"elapsed_ms":0`))
}

// legacyResponse is the traces response envelope as it was encoded before
// listings were kept as bytes: the TraceSetJSON struct passed through
// encoding/json inside the envelope.
type legacyResponse struct {
	Schema    int                     `json:"schema"`
	Kind      string                  `json:"kind"`
	SpecHash  string                  `json:"spec_hash,omitempty"`
	CacheHit  bool                    `json:"cache_hit"`
	OK        bool                    `json:"ok"`
	Error     string                  `json:"error,omitempty"`
	Status    int                     `json:"status,omitempty"`
	Traces    *csp.TraceSetJSON       `json:"traces,omitempty"`
	Progress  []csp.ProgressEventJSON `json:"progress,omitempty"`
	ElapsedMS int64                   `json:"elapsed_ms"`
}

// legacyBody re-encodes a served traces body in the legacy form, with the
// listing taken from the module's recorded result through EncodeTraceSet.
func legacyBody(t *testing.T, srv *server.Server, src string, c wireCase, engine string, maxOnly bool, limit int, served []byte) []byte {
	t.Helper()
	var resp legacyResponse
	if err := json.Unmarshal(served, &resp); err != nil {
		t.Fatalf("decoding %s: %v", served, err)
	}
	mod, _, _, err := srv.Cache().Load(context.Background(), src, csp.Options{NatWidth: c.nat})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := csp.ParseEngine(engine)
	if err != nil {
		t.Fatal(err)
	}
	res, ok := mod.CachedTraces(eng, c.depth, c.process)
	if !ok {
		t.Fatalf("%s/%s: no recorded %s result", c.spec, c.process, engine)
	}
	set := csp.EncodeTraceSet(res, maxOnly, limit)
	resp.Traces = &set
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(&resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// traceRequests lists a case's requests in the order the matrix sends
// them: the truncating limit before the server's default, so each default
// listing replaces a kept narrower one.
func traceRequests(src string, c wireCase) []map[string]any {
	var out []map[string]any
	for _, engine := range []string{"op", "denote"} {
		for _, maxTraces := range []int{truncating, 0} {
			for _, maxOnly := range []bool{false, true} {
				body := map[string]any{
					"source": src, "process": c.process, "engine": engine,
					"depth": c.depth, "nat": c.nat, "max_only": maxOnly,
				}
				if maxTraces > 0 {
					body["max_traces"] = maxTraces
				}
				out = append(out, body)
			}
		}
	}
	return out
}

// serveMatrix sends every request of the matrix twice (miss or first
// frozen read, then hit) and checks both bodies against the legacy
// encoding. It returns the normalised hit bodies by case and request.
func serveMatrix(t *testing.T, srv *server.Server) map[string][]byte {
	t.Helper()
	hits := map[string][]byte{}
	h := srv.Handler()
	for _, c := range wireCases {
		src := readSpec(t, c.spec)
		for _, body := range traceRequests(src, c) {
			limit := defaultLimit
			if n, ok := body["max_traces"].(int); ok {
				limit = n
			}
			name := fmt.Sprintf("%s/%s/%s/max_only=%v/limit=%d", c.spec, c.process, body["engine"], body["max_only"], limit)
			code, first := postRaw(t, h, "/v1/traces", body)
			if code != http.StatusOK {
				t.Fatalf("%s: code=%d body=%s", name, code, first)
			}
			code, again := postRaw(t, h, "/v1/traces", body)
			if code != http.StatusOK {
				t.Fatalf("%s: repeat code=%d body=%s", name, code, again)
			}
			for _, served := range [][]byte{first, again} {
				want := legacyBody(t, srv, src, c, body["engine"].(string), body["max_only"].(bool), limit, served)
				if got, want := normalise(served), normalise(want); !bytes.Equal(got, want) {
					t.Fatalf("%s: body differs from the struct encoding\ngot  %s\nwant %s", name, got, want)
				}
			}
			hits[name] = normalise(again)
		}
	}
	return hits
}

// TestTracesWireBytes pins /v1/traces bodies byte for byte to the struct
// encoding, on a miss and on a hit, for live results and for results
// rehydrated from the store as frozen arenas, and /v1/batch items to the
// single-run payloads.
func TestTracesWireBytes(t *testing.T) {
	dir := t.TempDir()
	live := server.New(server.Config{StoreDir: dir, Logf: t.Logf})
	live.WarmBoot(context.Background())
	liveHits := serveMatrix(t, live)
	if live.Cache().Stats().WireMemoBytes <= 0 {
		t.Fatal("no listing was kept")
	}

	frozen := server.New(server.Config{StoreDir: dir, Logf: t.Logf})
	if loaded, skipped := frozen.WarmBoot(context.Background()); loaded != len(wireCases) || skipped != 0 {
		t.Fatalf("warm boot loaded=%d skipped=%d, want %d/0", loaded, skipped, len(wireCases))
	}
	frozenHits := serveMatrix(t, frozen)
	for name, want := range liveHits {
		if got := frozenHits[name]; !bytes.Equal(got, want) {
			t.Fatalf("%s: frozen hit differs from live hit\nfrozen %s\nlive   %s", name, got, want)
		}
	}

	t.Run("batch", func(t *testing.T) {
		for _, c := range wireCases {
			src := readSpec(t, c.spec)
			reqs := traceRequests(src, c)
			items := make([]any, len(reqs))
			for i, r := range reqs {
				item := map[string]any{"kind": "traces"}
				for k, v := range r {
					item[k] = v
				}
				items[i] = item
			}
			code, body := postRaw(t, live.Handler(), "/v1/batch", map[string]any{"requests": items})
			if code != http.StatusOK {
				t.Fatalf("%s: batch code=%d body=%s", c.spec, code, body)
			}
			var out struct {
				Results []struct {
					Traces json.RawMessage `json:"traces"`
				} `json:"results"`
			}
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatal(err)
			}
			for i, r := range reqs {
				_, single := postRaw(t, live.Handler(), "/v1/traces", r)
				if want := payloadField(t, single, "traces"); string(out.Results[i].Traces) != want {
					t.Fatalf("%s item %d: batch payload differs\nbatch  %s\nsingle %s", c.spec, i, out.Results[i].Traces, want)
				}
			}
		}
	})
}

// multiplierTraces is the request for the largest listing of the
// scenario corpus: op traces of the multiplier at depth 5 over NAT
// sampled to 2, 2,351 traces in about 128 KB.
func multiplierTraces(t testing.TB) map[string]any {
	return map[string]any{"source": readSpec(t, "multiplier.csp"), "process": "multiplier", "depth": 5, "nat": 2}
}

// TestTracesMemoConcurrentHits serves one kept listing to eight
// goroutines at once; under -race this checks the memo's publication.
func TestTracesMemoConcurrentHits(t *testing.T) {
	h := server.New(server.Config{}).Handler()
	req := multiplierTraces(t)
	postRaw(t, h, "/v1/traces", req)
	_, hit := postRaw(t, h, "/v1/traces", req)
	want := normalise(hit)
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/traces", bytes.NewReader(raw)))
				if got := normalise(rec.Body.Bytes()); rec.Code != http.StatusOK || !bytes.Equal(got, want) {
					errs <- fmt.Errorf("code=%d body differs:\n%s", rec.Code, got)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so allocation
// counts measure the handler rather than a recorder's buffer growth.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// hitAllocs reports the allocations of one warm /v1/traces hit.
func hitAllocs(t *testing.T, h http.Handler, req map[string]any) float64 {
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if code, body := postRaw(t, h, "/v1/traces", req); code != http.StatusOK {
		t.Fatalf("code=%d body=%s", code, body)
	}
	w := &discardWriter{h: http.Header{}}
	return testing.AllocsPerRun(50, func() {
		h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/traces", bytes.NewReader(raw)))
	})
}

// TestTracesHitAllocs guards that a hit costs a constant number of
// allocations: the multiplier's 2,351-trace listing allocates about what
// copier's short one does, not an amount that grows with its traces.
func TestTracesHitAllocs(t *testing.T) {
	h := server.New(server.Config{}).Handler()
	small := hitAllocs(t, h, map[string]any{"source": readSpec(t, "copier.csp"), "process": "copier", "depth": 3})
	big := hitAllocs(t, h, multiplierTraces(t))
	t.Logf("allocs per hit: copier %.0f, multiplier %.0f", small, big)
	if big > small+10 {
		t.Fatalf("multiplier hit allocates %.0f, copier %.0f: the hit path grows with the listing", big, small)
	}
}

// TestEndpointLatencyMicros checks that /metrics counts latency in µs, so
// a sub-millisecond hit still moves the sum.
func TestEndpointLatencyMicros(t *testing.T) {
	srv := server.New(server.Config{})
	h := srv.Handler()
	req := map[string]any{"source": readSpec(t, "copier.csp"), "process": "copier", "depth": 3}
	postRaw(t, h, "/v1/traces", req)
	before := srv.Snapshot().Endpoints["traces"].LatencySumUS
	postRaw(t, h, "/v1/traces", req)
	after := srv.Snapshot().Endpoints["traces"]
	if after.LatencySumUS <= before || after.LatencyMaxUS <= 0 {
		t.Fatalf("a hit did not move the latency sum: before %d, after %+v", before, after)
	}
	_, doc := get(t, h, "/metrics")
	ep := doc["endpoints"].(map[string]any)["traces"].(map[string]any)
	if _, ok := ep["latency_sum_us"]; !ok {
		t.Fatalf("/metrics endpoint has no latency_sum_us: %v", ep)
	}
	if _, ok := ep["latency_sum_ms"]; ok {
		t.Fatalf("/metrics still reports latency_sum_ms: %v", ep)
	}
	mc := doc["module_cache"].(map[string]any)
	if n, ok := mc["wire_memo_bytes"].(float64); !ok || n <= 0 {
		t.Fatalf("/metrics module_cache.wire_memo_bytes = %v", mc["wire_memo_bytes"])
	}
}
