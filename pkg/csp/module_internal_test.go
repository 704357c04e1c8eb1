package csp

import (
	"context"
	"errors"
	"testing"

	"cspsat/internal/assertion"
	"cspsat/internal/proof"
	"cspsat/internal/syntax"
)

// TestDeferredParseFailurePropagates pins the contract of store-deferred
// modules whose source no longer parses (the grammar drifted since the
// artifact was written): every engine method returns the ErrParse-wrapped
// load error instead of dereferencing a missing System.
func TestDeferredParseFailurePropagates(t *testing.T) {
	ctx := context.Background()
	mod := newDeferred("p = a!1 -> \n", Options{})
	p := syntax.Ref{Name: "p"}
	eopts := EngineOptions{Depth: 3}
	copts := CheckOptions{Depth: 3}
	calls := map[string]func() error{
		"Proc": func() error { _, err := mod.Proc("p"); return err },
		"Traces": func() error {
			_, err := mod.Traces(ctx, p, eopts)
			return err
		},
		"Run":     func() error { _, err := mod.Run(ctx, p, eopts); return err },
		"DotLTS":  func() error { _, err := mod.DotLTS(p, 3); return err },
		"Checker": func() error { _, err := mod.Checker(ctx, copts); return err },
		"Sat": func() error {
			_, err := mod.Sat(ctx, p, assertion.True(), copts)
			return err
		},
		"Refine":    func() error { _, err := mod.Refine(ctx, p, p, copts); return err },
		"Deadlocks": func() error { _, err := mod.Deadlocks(ctx, p, copts); return err },
		"CheckAll":  func() error { _, err := mod.CheckAll(ctx, copts); return err },
		"Prover":    func() error { _, err := mod.Prover(ctx, copts); return err },
		"Check": func() error {
			_, err := mod.Check(ctx, proof.Triviality{P: syntax.Stop{}, T: assertion.True()}, copts)
			return err
		},
		"CheckBatch": func() error {
			_, err := mod.CheckBatch(ctx, []Obligation{{Name: "triv", Proof: proof.Triviality{P: syntax.Stop{}, T: assertion.True()}}}, copts)
			return err
		},
		"ProveAsserts": func() error { _, err := mod.ProveAsserts(ctx, copts, nil); return err },
		"Failures":     func() error { _, err := mod.Failures(ctx, p, eopts); return err },
		"Diverges":     func() error { _, _, err := mod.Diverges(ctx, p, eopts); return err },
	}
	for name, call := range calls {
		t.Run(name, func(t *testing.T) {
			if err := call(); !errors.Is(err, ErrParse) {
				t.Fatalf("err = %v, want one wrapping ErrParse", err)
			}
		})
	}
}
