// Protocol: the paper's §1.3(2)-(4) ACK/NACK retransmission protocol, taken
// through all three layers of the library:
//
//  1. the machine-checked §2.2 proofs (Table 1, the exercise, and the
//     six-step network proof),
//  2. exhaustive model checking of the same claims, and
//  3. concurrent execution with the invariant monitored online.
package main

import (
	"context"
	"fmt"
	"log"

	"cspsat/internal/assertion"
	"cspsat/internal/paper"
	"cspsat/internal/proofs"
	"cspsat/internal/value"
	"cspsat/pkg/csp"
)

func main() {
	ctx := context.Background()
	mod, err := csp.Load(ctx, paper.ProtocolSpec, csp.Options{NatWidth: 2})
	if err != nil {
		log.Fatal(err)
	}

	// --- 1. Machine-checked proofs (the paper's §2.2) ---
	msgs := value.Domain(value.IntRange{Lo: 0, Hi: 1})
	validity := &assertion.ValidityConfig{
		MaxLen: 3,
		ChanDom: map[string]value.Domain{
			"wire":   value.Union{A: msgs, B: value.NewEnum(value.Sym("ACK"), value.Sym("NACK"))},
			"input":  msgs,
			"output": msgs,
		},
		DefaultDom: msgs,
	}
	prover, err := mod.Prover(ctx, csp.CheckOptions{Validity: validity})
	if err != nil {
		log.Fatal(err)
	}
	for _, pr := range []struct {
		title string
		p     csp.Proof
	}{
		{"Table 1: sender sat f(wire) <= input", proofs.SenderTable1Proof()},
		{"exercise: receiver sat output <= f(wire)", proofs.ReceiverProof()},
		{"six steps: protocol sat output <= input", proofs.ProtocolProof()},
	} {
		claim, err := prover.Check(pr.p)
		if err != nil {
			log.Fatalf("proof %q rejected: %v", pr.title, err)
		}
		fmt.Printf("proved   %-45s ⊢ %s\n", pr.title, claim)
	}

	// --- 2. Model checking the same claims exhaustively ---
	results, err := mod.CheckAll(ctx, csp.CheckOptions{Depth: 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(csp.FormatAssertResults(results))

	// --- 3. Concurrent execution with an online monitor ---
	protocol, err := mod.Proc("protocol")
	if err != nil {
		log.Fatal(err)
	}
	run, err := mod.Run(ctx, protocol, csp.EngineOptions{Seed: 42, MaxEvents: 300}, mod.MonitorSat(paper.ProtocolSat()))
	if err != nil {
		log.Fatal(err)
	}
	if run.MonitorErr != nil {
		log.Fatalf("monitor violation: %v", run.MonitorErr)
	}
	retransmissions := 0
	for _, rec := range run.Events {
		if rec.Hidden && rec.Ev.Msg.Kind() == value.KindSym && rec.Ev.Msg.AsSym() == "NACK" {
			retransmissions++
		}
	}
	fmt.Printf("\nexecuted %d events (%d NACK retransmissions); delivered: %s\n",
		len(run.Events), retransmissions, run.Trace)
}
