// Command cspprove synthesises and checks §2.1-style proofs for the assert
// clauses of a .csp file, using the automatic prover behind
// csp.Module.ProveAsserts (shared with cspserved's /v1/prove endpoint):
// recursion goals are attempted jointly first, then individually as one
// batch across the -workers pool, and network asserts are assembled from
// the component proofs with the §2.2(3) glue. Pure side conditions are
// discharged by bounded validity; every accepted proof is fully
// re-verified by the rule checker.
//
// Usage:
//
//	cspprove [-nat W] [-maxlen L] [-model M] [-v] [-show] [-store DIR] [-workers N] [-timeout D] [-stats] file.csp
//
// The uniform -model flag is accepted for symmetry with cspcheck and
// csptrace, but the §2.1 proof system is a trace-model calculus: only
// -model traces is provable; -model failures is rejected with a pointer to
// cspcheck, whose failures-model checker discharges refusal-level claims.
//
// With -store DIR the run shares cspserved's artifact store: the compiled
// module is reused when persisted, and the proof verdicts are persisted
// back for the next reader of the same directory.
//
// Exit status 1 when any assert cannot be proved (it may still hold — use
// cspcheck for refutation), 2 on load errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"cspsat/internal/assertion"
	"cspsat/internal/cli"
	"cspsat/internal/proof"
	"cspsat/internal/value"
	"cspsat/pkg/csp"
)

func main() {
	app := cli.New("cspprove", "cspprove [-nat W] [-maxlen L] [-model M] [-v] [-show] [-store DIR] [-workers N] [-timeout D] [-stats] file.csp")
	app.NatFlag(2)
	app.StoreFlag()
	app.ModelFlag()
	maxLen := flag.Int("maxlen", 3, "history-length bound for validity obligations")
	verbose := flag.Bool("v", false, "print each verified rule application")
	show := flag.Bool("show", false, "render each successful proof in the paper's Table-1 style")
	args := app.Parse(1)
	if mdl := app.Model(); mdl != csp.ModelTraces {
		app.Fatal(fmt.Errorf("the §2.1 proof rules are a trace-model calculus and cannot discharge %s-model claims; use cspcheck -model %s", mdl, mdl))
	}
	ctx, cancel := app.Context()
	defer cancel()

	mod := app.Load(ctx, args[0])
	if len(mod.Asserts()) == 0 {
		fmt.Println("cspprove: no assert clauses in file")
		return
	}

	copts := csp.CheckOptions{
		Workers: app.Workers,
		Validity: &assertion.ValidityConfig{
			MaxLen: *maxLen,
			DefaultDom: value.Union{
				A: value.Nat{SampleWidth: app.Nat},
				B: value.NewEnum(value.Sym("ACK"), value.Sym("NACK")),
			},
		},
	}
	var log func(string)
	if *verbose {
		log = func(s string) { fmt.Println("   ", s) }
	}

	results, err := mod.ProveAsserts(ctx, copts, log)
	if err == nil {
		mod.StoreProve(*maxLen, csp.EncodeProveResults(results))
	}
	failed := false
	if *show {
		renderProofs(mod, ctx, copts, results)
	}
	for _, r := range results {
		switch {
		case r.OK && r.Method == "network glue":
			fmt.Printf("ok   proved %s (network glue)\n", r.Decl)
		case r.OK:
			fmt.Printf("ok   proved %s\n", r.Decl)
		default:
			failed = true
			fmt.Printf("FAIL %s\n     %v\n", r.Decl, r.Err)
		}
	}
	if err != nil {
		app.Fail(err)
	}
	app.Finish()
	if failed {
		os.Exit(1)
	}
}

// renderProofs re-checks each successful recursion proof with step
// collection on and prints it in the paper's numbered style.
func renderProofs(mod *csp.Module, ctx context.Context, copts csp.CheckOptions, results []csp.ProveResult) {
	prover, err := mod.Prover(ctx, copts)
	if err != nil {
		return // the same load failure is reported by ProveAsserts
	}
	seen := map[string]bool{}
	for _, r := range results {
		if !r.OK || r.Proof == nil || r.Method == "network glue" {
			continue
		}
		key := fmt.Sprintf("%s sat %s", r.Name, r.A)
		if seen[key] {
			continue
		}
		seen[key] = true
		var steps []proof.Step
		prover.Steps = &steps
		if _, err := prover.Check(r.Proof); err != nil {
			continue
		}
		prover.Steps = nil
		fmt.Printf("\n-- proof of %s --\n", key)
		_ = proof.Render(os.Stdout, steps)
	}
	fmt.Println()
}
