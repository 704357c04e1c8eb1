package csp

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"cspsat/internal/assertion"
	"cspsat/internal/check"
	"cspsat/internal/parser"
	"cspsat/internal/pool"
	"cspsat/internal/progress"
	"cspsat/internal/sem"
	"cspsat/internal/syntax"
)

// AssertResult pairs a parsed assert declaration with its check outcome:
// Result for sat-asserts, Refine for refinement asserts.
type AssertResult struct {
	Decl   AssertDecl
	Result CheckResult
	Refine *RefineResult
}

// OK reports whether the assert held.
func (r AssertResult) OK() bool {
	if r.Refine != nil {
		return r.Refine.OK
	}
	return r.Result.OK
}

// CheckAll model-checks every assert declaration of the module under the
// options' model, expanding quantified sat-asserts over their (sampled)
// domains. The declarations are distributed across a pool of opts.Workers
// goroutines (each check itself runs serially — asserts outnumber cores
// long before a single assert does), results come back in declaration
// order, and cancellation aborts with an error wrapping ErrCanceled.
// opts.Progress, when non-nil, receives a "check" stage event per
// completed assert.
//
// A declaration that pins its own model ("assert P refines Q in failures")
// overrides opts.Model for that declaration.
func (m *Module) CheckAll(ctx context.Context, opts CheckOptions) ([]AssertResult, error) {
	sys, err := m.system()
	if err != nil {
		return nil, err
	}
	decls := sys.Asserts
	start := time.Now()
	out := make([]AssertResult, len(decls))
	var done atomic.Int64
	// Asserts are whole model checks, so like proof batches the adaptive
	// cutover is just "more than one" — and WorkersAuto resolves to the
	// machine size.
	err = pool.Run(ctx, pool.Adaptive(opts.Workers, len(decls), 2), len(decls), func(i int) error {
		decl := decls[i]
		eff := opts
		eff.Workers = 1
		if decl.Model != ModelTraces {
			eff.Model = decl.Model
		}
		ck, err := m.Checker(ctx, eff)
		if err != nil {
			return err
		}
		if decl.Refines != nil {
			rr, err := ck.Refines(decl.Proc, decl.Refines)
			if err != nil {
				return fmt.Errorf("csp: %s: %w", decl, err)
			}
			out[i] = AssertResult{Decl: decl, Refine: &rr}
		} else {
			res, err := checkQuantified(ck, decl.Quants, decl.Proc, decl.A)
			if err != nil {
				return fmt.Errorf("csp: %s: %w", decl, err)
			}
			out[i] = AssertResult{Decl: decl, Result: res}
		}
		opts.Progress.Emit(progress.Event{
			Stage:   "check",
			Items:   int(done.Add(1)),
			Total:   len(decls),
			Elapsed: time.Since(start),
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	opts.Progress.Emit(progress.Event{
		Stage:   "check",
		Items:   len(decls),
		Total:   len(decls),
		Elapsed: time.Since(start),
		Done:    true,
	})
	return out, nil
}

// checkQuantified checks "∀x∈dom. P[x] sat R[x]" for each quantifier in
// turn by instantiating the shared variable with every value of its
// (sampled) domain — the paper's reading of a free variable occurring in
// both P and R. The first failing instance is the verdict; otherwise the
// traces checked sum over every instance.
func checkQuantified(ck *check.Checker, quants []parser.Quant, p syntax.Proc, a assertion.A) (CheckResult, error) {
	if len(quants) == 0 {
		return ck.Sat(p, a)
	}
	q := quants[0]
	dom, err := ck.Env().EvalSet(q.Dom)
	if err != nil {
		return CheckResult{}, err
	}
	total := CheckResult{OK: true, Depth: ck.Depth()}
	for _, v := range dom.Enumerate() {
		inst := syntax.SubstProc(p, q.Var, sem.ValueToExpr(v))
		instA := assertion.SubstVar(a, q.Var, assertion.Lit{Val: v})
		r, err := checkQuantified(ck, quants[1:], inst, instA)
		if err != nil {
			return CheckResult{}, fmt.Errorf("%s=%v: %w", q.Var, v, err)
		}
		total.TracesChecked += r.TracesChecked
		if !r.OK {
			r.TracesChecked = total.TracesChecked
			return r, nil
		}
	}
	return total, nil
}

// FormatAssertResults renders CheckAll results as an aligned report.
func FormatAssertResults(results []AssertResult) string {
	var sb strings.Builder
	for _, r := range results {
		status := "OK  "
		if !r.OK() {
			status = "FAIL"
		}
		if r.Refine != nil {
			fmt.Fprintf(&sb, "%s  %-70s (%s model, depth %d)\n", status, r.Decl.String(), r.Refine.Model, r.Refine.Depth)
			if !r.Refine.OK {
				if r.Refine.Failure != nil && r.Refine.Failure.ImplAcceptance != nil {
					fmt.Fprintf(&sb, "      witness: after %s impl stably offers only %s, which spec never permits\n",
						r.Refine.Witness, r.Refine.Failure.ImplAcceptance)
				} else {
					fmt.Fprintf(&sb, "      witness: impl performs %s which spec cannot\n", r.Refine.Witness)
				}
			}
			continue
		}
		if r.Result.Vacuous {
			fmt.Fprintf(&sb, "%s  %-70s (vacuous under traces model; re-check with -model failures)\n",
				status, r.Decl.String())
			continue
		}
		fmt.Fprintf(&sb, "%s  %-70s (%d traces, depth %d)\n",
			status, r.Decl.String(), r.Result.TracesChecked, r.Result.Depth)
		if !r.Result.OK {
			if r.Result.Refusal != nil {
				fmt.Fprintf(&sb, "      counterexample: %s\n", r.Result.Refusal)
			} else {
				fmt.Fprintf(&sb, "      counterexample: %s\n", r.Result.Counter)
			}
		}
	}
	return sb.String()
}
