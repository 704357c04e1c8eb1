// Command cspproof replays the machine-encoded proofs from the paper —
// §2.1's copier examples, Table 1's sender proof, the §2.2 receiver
// exercise, and the six-step protocol proof — through the proof checker,
// printing each verified rule application. It then cross-checks every
// conclusion with the model checker.
//
// Usage:
//
//	cspproof [-which all|copier|protocol] [-v] [-show] [-workers N] [-timeout D] [-stats]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"cspsat/internal/assertion"
	"cspsat/internal/cli"
	"cspsat/internal/paper"
	"cspsat/internal/proof"
	"cspsat/internal/proofs"
	"cspsat/internal/syntax"
	"cspsat/internal/value"
	"cspsat/pkg/csp"
)

func main() {
	app := cli.New("cspproof", "cspproof [-which all|copier|protocol] [-v] [-show] [-workers N] [-timeout D] [-stats]")
	which := flag.String("which", "all", "proof group to replay: all, copier, protocol")
	verbose := flag.Bool("v", false, "print every verified rule application")
	show := flag.Bool("show", false, "render each proof in the paper's Table-1 style")
	app.Parse(0)
	ctx, cancel := app.Context()
	defer cancel()

	ok := true
	if *which == "all" || *which == "copier" {
		ok = runGroup(ctx, app, copierGroup(), *verbose, *show) && ok
	}
	if *which == "all" || *which == "protocol" {
		ok = runGroup(ctx, app, protocolGroup(), *verbose, *show) && ok
	}
	app.Finish()
	if !ok {
		os.Exit(1)
	}
}

type namedProof struct {
	name string
	p    proof.Proof
}

type crossCheck struct {
	name  string
	proc  csp.Proc
	claim csp.Assertion
}

// group bundles one paper system's proofs: the module they are checked
// against, the validity configuration bounding pure side conditions, the
// proof objects, and the model checks cross-validating each conclusion.
type group struct {
	title    string
	mod      *csp.Module
	validity assertion.ValidityConfig
	proofs   []namedProof
	crosses  []crossCheck
}

func copierGroup() group {
	return group{
		title:    "copier system",
		mod:      csp.FromModule(paper.CopySystem(), csp.Options{NatWidth: 2}),
		validity: assertion.ValidityConfig{MaxLen: 3},
		proofs: []namedProof{
			{"STOP sat wire<=input (emptiness, §2.1(4))", proofs.StopSatExample()},
			{"copier sat wire<=input (§2.1(6),(10))", proofs.CopierProof()},
			{"recopier sat output<=wire", proofs.RecopierProof()},
			{"copysys sat output<=input (§2.1(8),(9))", proofs.CopyNetworkProof()},
		},
		crosses: []crossCheck{
			{"copier", ref(paper.NameCopier), paper.CopierSat()},
			{"recopier", ref(paper.NameRecopier), paper.RecopierSat()},
			{"copysys", ref(paper.NameCopySys), paper.CopyNetSat()},
		},
	}
}

func protocolGroup() group {
	msgs := value.Domain(value.IntRange{Lo: 0, Hi: 1})
	return group{
		title: "protocol",
		mod:   csp.FromModule(paper.ProtocolSystem(2), csp.Options{NatWidth: 2}),
		validity: assertion.ValidityConfig{
			MaxLen: 3,
			ChanDom: map[string]value.Domain{
				"wire":   value.Union{A: msgs, B: value.NewEnum(value.Sym("ACK"), value.Sym("NACK"))},
				"input":  msgs,
				"output": msgs,
			},
			DefaultDom: msgs,
		},
		proofs: []namedProof{
			{"sender sat f(wire)<=input (Table 1)", proofs.SenderTable1Proof()},
			{"receiver sat output<=f(wire) (§2.2(2), the exercise)", proofs.ReceiverProof()},
			{"protocol sat output<=input (§2.2(3))", proofs.ProtocolProof()},
		},
		crosses: []crossCheck{
			{"sender", ref(paper.NameSender), paper.SenderSat()},
			{"receiver", ref(paper.NameReceiver), paper.ReceiverSat()},
			{"protocol", ref(paper.NameProtocol), paper.ProtocolSat()},
		},
	}
}

func ref(name string) csp.Proc { return syntax.Ref{Name: name} }

func runGroup(ctx context.Context, app *cli.App, g group, verbose, show bool) bool {
	fmt.Printf("== %s ==\n", g.title)
	copts := csp.CheckOptions{Workers: app.Workers, Validity: &g.validity}
	ok := true
	if verbose || show {
		// Sequential replay: rule logging and step collection need the
		// per-checker Log/Steps hooks, which a batch fork clears.
		checker, err := g.mod.Prover(ctx, copts)
		if err != nil {
			app.Fatal(err)
		}
		if verbose {
			checker.Log = func(s string) { fmt.Println("   ", s) }
		}
		for _, np := range g.proofs {
			var steps []proof.Step
			if show {
				checker.Steps = &steps
			}
			cl, err := checker.Check(np.p)
			if err != nil {
				fmt.Printf("FAIL %s\n     %v\n", np.name, err)
				ok = false
				continue
			}
			fmt.Printf("ok   %-55s ⊢ %s\n", np.name, cl)
			if show {
				_ = proof.Render(os.Stdout, steps)
				fmt.Println()
			}
		}
	} else {
		// The proofs are independent: verify them as one batch across the
		// worker pool, reporting in input order.
		obs := make([]csp.Obligation, len(g.proofs))
		for i, np := range g.proofs {
			obs[i] = csp.Obligation{Name: np.name, Proof: np.p}
		}
		results, _ := g.mod.CheckBatch(ctx, obs, copts)
		for _, r := range results {
			if r.Err != nil {
				fmt.Printf("FAIL %s\n     %v\n", r.Name, r.Err)
				ok = false
				continue
			}
			fmt.Printf("ok   %-55s ⊢ %s\n", r.Name, r.Claim)
		}
	}
	mopts := csp.CheckOptions{Depth: 7, Workers: app.Workers}
	for _, cc := range g.crosses {
		res, err := g.mod.Sat(ctx, cc.proc, cc.claim, mopts)
		if err != nil {
			fmt.Printf("FAIL model-check %s: %v\n", cc.name, err)
			ok = false
			continue
		}
		if !res.OK {
			fmt.Printf("FAIL model-check %s: %s\n", cc.name, res)
			ok = false
			continue
		}
		fmt.Printf("ok   model-check %-43s (%d traces, depth %d)\n", cc.name, res.TracesChecked, res.Depth)
	}
	return ok
}
