// The elaboration step is exercised through pkg/csp, its only importer:
// every Module loads, resolves processes and evaluates against the System
// this package builds.
package core_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cspsat/internal/assertion"
	"cspsat/internal/op"
	"cspsat/internal/paper"
	"cspsat/internal/proofs"
	"cspsat/pkg/csp"
)

var ctx = context.Background()

func TestLoadAndCheckAllCopier(t *testing.T) {
	mod, err := csp.Load(ctx, paper.CopierSpec, csp.Options{NatWidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	results, err := mod.CheckAll(ctx, csp.CheckOptions{Depth: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if !r.Result.OK {
			t.Errorf("assert failed: %s: %s", r.Decl, r.Result)
		}
	}
	report := csp.FormatAssertResults(results)
	if !strings.Contains(report, "OK") || strings.Contains(report, "FAIL") {
		t.Errorf("report:\n%s", report)
	}
}

func TestCheckAllQuantifiedAssert(t *testing.T) {
	mod, err := csp.Load(ctx, paper.ProtocolSpec, csp.Options{NatWidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	results, err := mod.CheckAll(ctx, csp.CheckOptions{Depth: 6})
	if err != nil {
		t.Fatal(err)
	}
	var sawQuantified bool
	for _, r := range results {
		if len(r.Decl.Quants) > 0 {
			sawQuantified = true
			if !r.Result.OK {
				t.Errorf("quantified assert failed: %s", r.Result)
			}
		}
	}
	if !sawQuantified {
		t.Fatal("protocol spec lost its quantified assert")
	}
}

func TestCheckAllReportsCounterexample(t *testing.T) {
	src := `
p = a!1 -> p
assert p sat #a <= 2
`
	mod, err := csp.Load(ctx, src, csp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	results, err := mod.CheckAll(ctx, csp.CheckOptions{Depth: 5})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Result.OK {
		t.Fatal("false assert passed")
	}
	if results[0].Result.Counter == nil {
		t.Fatal("no counterexample")
	}
	report := csp.FormatAssertResults(results)
	if !strings.Contains(report, "FAIL") || !strings.Contains(report, "counterexample") {
		t.Errorf("report:\n%s", report)
	}
}

func TestLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.csp")
	if err := os.WriteFile(path, []byte(paper.CopierSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := csp.LoadFile(ctx, path, csp.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := csp.LoadFile(ctx, filepath.Join(dir, "missing.csp"), csp.Options{}); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.csp")
	if err := os.WriteFile(bad, []byte("p = ???"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := csp.LoadFile(ctx, bad, csp.Options{}); err == nil {
		t.Fatal("unparsable file accepted")
	}
}

func TestProcLookups(t *testing.T) {
	sys := csp.FromModule(paper.ProtocolSystem(2), csp.Options{NatWidth: 2})
	if _, err := sys.Proc(paper.NameSender); err != nil {
		t.Error(err)
	}
	if _, err := sys.Proc("ghost"); err == nil {
		t.Error("undefined process accepted")
	}
	if _, err := sys.Proc(paper.NameQ); err == nil {
		t.Error("array without subscript accepted")
	}
	if _, err := sys.ProcIdx(paper.NameQ, 0); err != nil {
		t.Error(err)
	}
	if _, err := sys.ProcIdx(paper.NameSender, 0); err == nil {
		t.Error("ProcIdx on plain process accepted")
	}
}

func TestProveThroughFacade(t *testing.T) {
	mod := csp.FromModule(paper.CopySystem(), csp.Options{NatWidth: 2})
	cl, err := mod.Check(ctx, proofs.CopierProof(), csp.CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cl.String() != "copier sat wire <= input" {
		t.Errorf("conclusion = %s", cl)
	}
	validity := &assertion.ValidityConfig{MaxLen: 2}
	if _, err := mod.Check(ctx, proofs.CopierProof(), csp.CheckOptions{Validity: validity}); err != nil {
		t.Errorf("custom validity config: %v", err)
	}
}

func TestRunAndSimulateThroughFacade(t *testing.T) {
	mod := csp.FromModule(paper.CopySystem(), csp.Options{NatWidth: 2})
	net, err := mod.Proc(paper.NameCopyNet)
	if err != nil {
		t.Fatal(err)
	}
	walk := csp.EngineOptions{Seed: 3, MaxEvents: 20}
	res, err := mod.Run(ctx, net, walk)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) != 20 {
		t.Errorf("events = %d", len(res.Events))
	}
	mon, err := mod.Run(ctx, net, walk, mod.MonitorSat(paper.CopyNetSat()))
	if err != nil || mon.MonitorErr != nil {
		t.Fatalf("monitored run: %v %v", err, mon.MonitorErr)
	}
	p, _ := mod.Proc(paper.NameCopier)
	walked, _, err := op.NewSimulator(5).Walk(op.NewState(p, mod.Env()), 6)
	if err != nil {
		t.Fatal(err)
	}
	if s := walked.String(); !strings.HasPrefix(s, "<input.") {
		t.Errorf("simulated trace = %s", s)
	}
	opRes, err := mod.Traces(ctx, p, csp.EngineOptions{Depth: 3})
	if err != nil {
		t.Fatalf("Traces: %v", err)
	}
	tr := opRes.Set
	if tr.Size() == 0 {
		t.Fatalf("Traces: %v", tr)
	}
	denRes, err := mod.Traces(ctx, p, csp.EngineOptions{Engine: csp.EngineDenote, Depth: 3})
	if err != nil || !denRes.Set.Equal(tr) {
		t.Fatalf("Denote disagrees with Traces: %v", err)
	}
}
