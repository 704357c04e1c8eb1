// Multiplier: the paper's §1.3(5) systolic pipeline computing scalar
// products of matrix rows with a fixed vector v[1..3]. The example feeds a
// concrete matrix through the running goroutine network, checks every
// output against the directly computed product, and model-checks the
// paper's §2 invariant
//
//	∀i ≤ #output. outputᵢ = Σⱼ v[j]·row[j]ᵢ
package main

import (
	"context"
	"fmt"
	"log"

	"cspsat/internal/paper"
	"cspsat/internal/trace"
	"cspsat/pkg/csp"
)

func main() {
	v := []int64{5, 3, 2}
	ctx := context.Background()
	mod := csp.FromModule(paper.MultiplierSystem(v), csp.Options{NatWidth: 4})
	mult, err := mod.Proc("multiplier")
	if err != nil {
		log.Fatal(err)
	}

	// --- Execute the 5-process network on goroutines ---
	run, err := mod.Run(ctx, mult, csp.EngineOptions{Seed: 11, MaxEvents: 400}, mod.MonitorSat(paper.MultiplierSat()))
	if err != nil {
		log.Fatal(err)
	}
	if run.MonitorErr != nil {
		log.Fatalf("monitor violation: %v", run.MonitorErr)
	}
	hist := trace.Ch(run.Trace)
	rows := [3][]int64{}
	for j := 1; j <= 3; j++ {
		for _, m := range hist.Get(trace.Sub("row", int64(j))) {
			rows[j-1] = append(rows[j-1], m.AsInt())
		}
	}
	fmt.Printf("network of %d goroutines ran %d events\n", run.LeafCount, len(run.Events))
	fmt.Printf("rows consumed: row[1]=%v row[2]=%v row[3]=%v\n", rows[0], rows[1], rows[2])
	fmt.Printf("products emitted: %v\n", hist.Get("output"))

	// Recompute each scalar product directly and compare.
	for i, out := range hist.Get("output") {
		want := v[0]*rows[0][i] + v[1]*rows[1][i] + v[2]*rows[2][i]
		status := "ok"
		if out.AsInt() != want {
			status = "MISMATCH"
		}
		fmt.Printf("  output[%d] = %d, direct computation %d  %s\n", i+1, out.AsInt(), want, status)
	}

	// --- Exhaustive model check of the invariant ---
	res, err := mod.Sat(ctx, mult, paper.MultiplierSat(), csp.CheckOptions{Depth: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmodel check: %s\n", res)
}
