package core_test

import (
	"os"
	"path/filepath"
	"testing"

	"cspsat/internal/paper"
	"cspsat/pkg/csp"
)

// specPath locates a file in the repository's specs/ directory.
func specPath(t *testing.T, name string) string {
	t.Helper()
	return filepath.Join("..", "..", "specs", name)
}

// TestSpecFilesMatchCanonicalText pins the on-disk spec files to the
// canonical constants in internal/paper.
func TestSpecFilesMatchCanonicalText(t *testing.T) {
	cases := []struct {
		file string
		want string
	}{
		{"copier.csp", paper.CopierSpec},
		{"protocol.csp", paper.ProtocolSpec},
		{"multiplier.csp", paper.MultiplierSpec},
	}
	for _, tc := range cases {
		data, err := os.ReadFile(specPath(t, tc.file))
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		if string(data) != tc.want {
			t.Errorf("specs/%s has drifted from paper.%s constant", tc.file, tc.file)
		}
	}
}

// TestBuffersSpec checks the refinement demo end to end, including the
// refinement assert and its direction.
func TestBuffersSpec(t *testing.T) {
	mod, err := csp.LoadFile(ctx, specPath(t, "buffers.csp"), csp.Options{NatWidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	results, err := mod.CheckAll(ctx, csp.CheckOptions{Depth: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("want 5 asserts, got %d", len(results))
	}
	for _, r := range results {
		if !r.OK() {
			t.Errorf("failed: %s", r.Decl)
		}
	}
	// The converse refinement must fail: buf2 has traces buf1 lacks.
	buf1, err := mod.Proc("buf1")
	if err != nil {
		t.Fatal(err)
	}
	buf2, err := mod.Proc("buf2")
	if err != nil {
		t.Fatal(err)
	}
	rr, err := mod.Refine(ctx, buf2, buf1, csp.CheckOptions{Depth: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rr.OK {
		t.Fatal("buf2 must not refine buf1")
	}
	if rr.Witness == nil {
		t.Fatal("failed refinement needs a witness trace")
	}
}

// TestTokenRingSpec checks the ring's round-robin invariant and
// deadlock freedom.
func TestTokenRingSpec(t *testing.T) {
	mod, err := csp.LoadFile(ctx, specPath(t, "tokenring.csp"), csp.Options{NatWidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	results, err := mod.CheckAll(ctx, csp.CheckOptions{Depth: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.OK() {
			t.Errorf("failed: %s: %s", r.Decl, r.Result)
		}
	}
	ringSys, err := mod.Proc("sys")
	if err != nil {
		t.Fatal(err)
	}
	dls, err := mod.Deadlocks(ctx, ringSys, csp.CheckOptions{Depth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(dls) != 0 {
		t.Fatalf("token ring deadlocks after %s", dls[0].Trace)
	}
	// The ring is deterministic: exactly one maximal behaviour.
	traces, err := mod.Traces(ctx, ringSys, csp.EngineOptions{Depth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(traces.Set.TracesMax()); got != 1 {
		t.Errorf("token ring should be deterministic, found %d maximal traces", got)
	}
	// Runtime execution respects round-robin order.
	run, err := mod.Run(ctx, ringSys, csp.EngineOptions{Seed: 5, MaxEvents: 40}, mod.MonitorSat(mod.Asserts()[0].A))
	if err != nil {
		t.Fatal(err)
	}
	if run.MonitorErr != nil {
		t.Fatalf("monitor: %v", run.MonitorErr)
	}
}

// TestPhilosophersSpec: the classic deadlock story, with partial
// correctness blind to it — the §4 limitation on a famous example.
func TestPhilosophersSpec(t *testing.T) {
	mod, err := csp.LoadFile(ctx, specPath(t, "philosophers.csp"), csp.Options{NatWidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Both tables pass their (identical) sat-assertions...
	results, err := mod.CheckAll(ctx, csp.CheckOptions{Depth: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.OK() {
			t.Errorf("failed: %s", r.Decl)
		}
	}
	// ...but only the naive one deadlocks.
	bad, err := mod.Proc("deadlocking")
	if err != nil {
		t.Fatal(err)
	}
	good, err := mod.Proc("safe")
	if err != nil {
		t.Fatal(err)
	}
	six := csp.CheckOptions{Depth: 6}
	dls, err := mod.Deadlocks(ctx, bad, six)
	if err != nil {
		t.Fatal(err)
	}
	if len(dls) == 0 {
		t.Fatal("naive table's deadlock not found")
	}
	dls, err = mod.Deadlocks(ctx, good, six)
	if err != nil {
		t.Fatal(err)
	}
	if len(dls) != 0 {
		t.Fatalf("left-handed table deadlocks after %s", dls[0].Trace)
	}
	// The failures model sees it too: the naive table may refuse all eats.
	m, err := mod.Failures(ctx, bad, csp.EngineOptions{Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, can := m.CanDeadlock(); !can {
		t.Error("failures model misses the deadlock")
	}
}
