package csp_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"cspsat/pkg/csp"
)

// structJSON is the listing as encoding/json writes the TraceSetJSON
// struct inside a response.
func structJSON(t *testing.T, r *csp.TraceResult, maxOnly bool, limit int) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(csp.EncodeTraceSet(r, maxOnly, limit)); err != nil {
		t.Fatal(err)
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
}

// residentMultiplier loads the multiplier through c and records its op
// traces at depth 5 (2,351 traces).
func residentMultiplier(t *testing.T, c *csp.ModuleCache) *csp.TraceResult {
	t.Helper()
	ctx := context.Background()
	mod, _, _, err := c.Load(ctx, readSpec(t, "multiplier.csp"), csp.Options{NatWidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	p, err := mod.Proc("multiplier")
	if err != nil {
		t.Fatal(err)
	}
	res, err := mod.Traces(ctx, p, csp.EngineOptions{Engine: csp.EngineOp, Depth: 5})
	if err != nil {
		t.Fatal(err)
	}
	mod.StoreTraces(csp.EngineOp, 5, "multiplier", res)
	return res
}

func sameBytes(a, b []byte) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

// TestEncodeTraceSetJSONMemo checks which listings are kept and what the
// budget gauge reads: the widest listing per maxOnly is kept, narrower
// limits are encoded per call without growing the gauge, eviction gives
// the bytes back, and every call returns the struct encoding's bytes.
func TestEncodeTraceSetJSONMemo(t *testing.T) {
	const limit = 10000
	c := csp.NewModuleCache(1)
	res := residentMultiplier(t, c)

	// A narrow first request is kept only until a wider one comes.
	narrow := csp.EncodeTraceSetJSON(res, false, 3)
	if got := c.Stats().WireMemoBytes; got != int64(len(narrow)) {
		t.Fatalf("wire_memo_bytes = %d, want the narrow listing's %d", got, len(narrow))
	}
	first := csp.EncodeTraceSetJSON(res, false, limit)
	if want := structJSON(t, res, false, limit); !bytes.Equal(first, want) {
		t.Fatalf("listing differs from the struct encoding")
	}
	if got := c.Stats().WireMemoBytes; got != int64(len(first)) {
		t.Fatalf("wire_memo_bytes = %d, want the wider listing's %d", got, len(first))
	}
	if again := csp.EncodeTraceSetJSON(res, false, limit); !sameBytes(first, again) {
		t.Fatal("a repeat call re-encoded the kept listing")
	}

	maxOnly := csp.EncodeTraceSetJSON(res, true, limit)
	if want := structJSON(t, res, true, limit); !bytes.Equal(maxOnly, want) {
		t.Fatalf("max_only listing differs from the struct encoding")
	}
	kept := int64(len(first) + len(maxOnly))
	for n := 1; n <= 64; n++ {
		for _, mo := range []bool{false, true} {
			if got, want := csp.EncodeTraceSetJSON(res, mo, n), structJSON(t, res, mo, n); !bytes.Equal(got, want) {
				t.Fatalf("max_only=%v limit=%d: listing differs from the struct encoding", mo, n)
			}
		}
	}
	if got := c.Stats().WireMemoBytes; got != kept {
		t.Fatalf("a max_traces sweep moved wire_memo_bytes to %d, want %d", got, kept)
	}
	if again := csp.EncodeTraceSetJSON(res, false, limit); !sameBytes(first, again) {
		t.Fatal("the sweep replaced the kept listing")
	}

	// Loading another module evicts the multiplier (capacity 1).
	if _, _, _, err := c.Load(context.Background(), "p = a!0 -> p\n", csp.Options{NatWidth: 2}); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().WireMemoBytes; got != 0 {
		t.Fatalf("wire_memo_bytes = %d after eviction, want 0", got)
	}
	after := csp.EncodeTraceSetJSON(res, false, limit)
	if !bytes.Equal(after, first) || sameBytes(after, first) {
		t.Fatal("an evicted module's result must encode per call, to the same bytes")
	}
	if got := c.Stats().WireMemoBytes; got != 0 {
		t.Fatalf("an evicted module kept a listing: wire_memo_bytes = %d", got)
	}
}

// TestEncodeTraceSetJSONOverBudget checks that a listing past the budget
// is served correctly and not kept, and that a result outside any
// ModuleCache keeps nothing.
func TestEncodeTraceSetJSONOverBudget(t *testing.T) {
	c := csp.NewModuleCache(1)
	res := residentMultiplier(t, c)
	want := structJSON(t, res, false, 10000)
	wantMax := structJSON(t, res, true, 10000)

	restore := csp.SetWireMemoBudgetForTest(int64(min(len(want), len(wantMax))) - 1)
	defer restore()
	first := csp.EncodeTraceSetJSON(res, false, 10000)
	again := csp.EncodeTraceSetJSON(res, false, 10000)
	if !bytes.Equal(first, want) || !bytes.Equal(again, want) {
		t.Fatal("an over-budget listing differs from the struct encoding")
	}
	if sameBytes(first, again) || c.Stats().WireMemoBytes != 0 {
		t.Fatalf("an over-budget listing was kept (wire_memo_bytes = %d)", c.Stats().WireMemoBytes)
	}
	// A listing that fits is still kept, and a wider one past the budget
	// does not replace it.
	small := csp.EncodeTraceSetJSON(res, true, 3)
	csp.EncodeTraceSetJSON(res, true, 10000)
	if got := c.Stats().WireMemoBytes; got != int64(len(small)) {
		t.Fatalf("wire_memo_bytes = %d, want the small listing's %d", got, len(small))
	}
	if again := csp.EncodeTraceSetJSON(res, true, 3); !sameBytes(small, again) {
		t.Fatal("an over-budget wider listing displaced the kept one")
	}
	restore()

	mod, err := csp.Load(context.Background(), readSpec(t, "copier.csp"), csp.Options{NatWidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	p, err := mod.Proc("copier")
	if err != nil {
		t.Fatal(err)
	}
	loose, err := mod.Traces(context.Background(), p, csp.EngineOptions{Engine: csp.EngineOp, Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	mod.StoreTraces(csp.EngineOp, 4, "copier", loose)
	if a, b := csp.EncodeTraceSetJSON(loose, false, 0), csp.EncodeTraceSetJSON(loose, false, 0); sameBytes(a, b) {
		t.Fatal("a module outside any ModuleCache kept a listing")
	}
}
