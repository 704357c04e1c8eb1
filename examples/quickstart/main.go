// Quickstart: define a process network in the paper's notation, model-check
// a sat-assertion, see a counterexample for a false one, and enumerate
// traces — the five-minute tour of the library.
package main

import (
	"context"
	"fmt"
	"log"

	"cspsat/internal/assertion"
	"cspsat/pkg/csp"
)

const spec = `
-- A one-place buffer: everything output was first input.
buffer = in?x:NAT -> out!x -> buffer

assert buffer sat out <= in
assert buffer sat #in <= #out + 1
`

func main() {
	ctx := context.Background()
	mod, err := csp.Load(ctx, spec, csp.Options{NatWidth: 3})
	if err != nil {
		log.Fatal(err)
	}

	// 1. Check the assertions written in the spec.
	results, err := mod.CheckAll(ctx, csp.CheckOptions{Depth: 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(csp.FormatAssertResults(results))

	// 2. A false claim produces a concrete counterexample trace.
	buffer, err := mod.Proc("buffer")
	if err != nil {
		log.Fatal(err)
	}
	wrong := assertion.PrefixLE(assertion.Chan("in"), assertion.Chan("out"))
	res, err := mod.Sat(ctx, buffer, wrong, csp.CheckOptions{Depth: 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfalse claim %q: %s\n", wrong, res)

	// 3. Enumerate the prefix-closed trace set (the paper's denotation).
	tr, err := mod.Traces(ctx, buffer, csp.EngineOptions{Depth: 3})
	if err != nil {
		log.Fatal(err)
	}
	traces := tr.Set
	fmt.Printf("\ntraces of buffer up to length 3 (%d):\n", traces.Size())
	for _, t := range traces.Traces() {
		fmt.Println(" ", t)
	}

	// 4. Execute the buffer as a goroutine network with the assertion
	//    monitored online.
	run, err := mod.Run(ctx, buffer, csp.EngineOptions{Seed: 7, MaxEvents: 20}, mod.MonitorSat(results[0].Decl.A))
	if err != nil {
		log.Fatal(err)
	}
	if run.MonitorErr != nil {
		log.Fatal(run.MonitorErr)
	}
	fmt.Printf("\nexecuted %d events on goroutines, trace: %s\n", len(run.Events), run.Trace)
}
