// Command cspcheck model-checks the assert clauses of a .csp file: every
// trace of each asserted process, up to a depth bound, is checked against
// its assertion, exactly the paper's semantics of "P sat R" restricted to
// bounded traces over sampled message domains.
//
// The -model flag selects the semantic model verdicts are computed under.
// The default, traces, is the paper's model: refusal-level assertions
// (deadlockfree, offers) hold vacuously there — §4's admission that sat
// cannot see a deadlock. With -model failures the same assertions are
// discharged against the §4 stable-failures model, and refinement asserts
// become failures refinement, so "STOP |~| P refines P" correctly fails.
//
// With -store DIR the run shares cspserved's artifact store: the compiled
// module is reused when persisted, and the verdicts this run computes are
// persisted back so a cspserved (or cspstore verify) over the same
// directory sees them without recomputing.
//
// Usage:
//
//	cspcheck [-depth N] [-nat W] [-model M] [-store DIR] [-workers N] [-timeout D] [-stats] file.csp
//
// Exit status 1 when any assertion fails, 2 on usage or load errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"cspsat/internal/cli"
	"cspsat/pkg/csp"
)

func main() {
	app := cli.New("cspcheck", "cspcheck [-depth N] [-nat W] [-model M] [-store DIR] [-workers N] [-timeout D] [-stats] file.csp")
	app.NatFlag(3)
	app.StoreFlag()
	app.ModelFlag()
	depth := flag.Int("depth", 8, "trace-length bound for the exhaustive check")
	args := app.Parse(1)
	mdl := app.Model()
	ctx, cancel := app.Context()
	defer cancel()

	mod := app.Load(ctx, args[0])
	if len(mod.Asserts()) == 0 {
		fmt.Println("cspcheck: no assert clauses in file")
		return
	}
	results, err := mod.CheckAll(ctx, csp.CheckOptions{Model: mdl, Depth: *depth, Workers: app.Workers})
	if err != nil {
		app.Fatal(err)
	}
	// The persisted check-verdict block is the trace-model one (the cache
	// key carries no model); failures-model runs are never stored so a
	// later traces-model reader cannot pick up the wrong verdicts.
	if mdl == csp.ModelTraces {
		mod.StoreCheck(*depth, csp.EncodeAssertResults(results))
	}
	fmt.Print(csp.FormatAssertResults(results))
	bad := false
	for _, r := range results {
		if !r.OK() {
			bad = true
		}
	}
	app.Finish()
	if bad {
		os.Exit(1)
	}
}
