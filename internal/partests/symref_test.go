package partests

// Six-spec differential test for the interned-symbol engine. refTraces is
// a deliberately naive enumerator over op.Step: state sets keyed by
// Proc.String(), traces rendered as plain strings, no closure tries, no
// EventIDs, no bitsets, no memoisation — a second implementation of the
// paper's prefix-closed trace semantics that shares nothing with the id
// layer under test. The engine must produce exactly its trace sets on
// every spec root at the depths the parallel tests use.

import (
	"context"
	"sort"
	"strings"
	"testing"

	"cspsat/internal/op"
	"cspsat/internal/sem"
	"cspsat/internal/syntax"
	"cspsat/internal/trace"
	"cspsat/internal/value"
	"cspsat/pkg/csp"
)

// refEventKey renders one event unambiguously (channel and message key are
// separated so sym "3" and int 3 cannot collide).
func refEventKey(e trace.Event) string {
	return string(e.Chan) + "\x01" + e.Msg.Key() + "\x00"
}

// refTauClosure expands a state to everything reachable by internal steps
// alone, deduplicating on the syntactic state key.
func refTauClosure(t *testing.T, s op.State) []op.State {
	t.Helper()
	seen := map[string]bool{s.Key(): true}
	out := []op.State{s}
	work := []op.State{s}
	for len(work) > 0 {
		cur := work[len(work)-1]
		work = work[:len(work)-1]
		ts, err := op.Step(cur)
		if err != nil {
			t.Fatalf("reference Step: %v", err)
		}
		for _, tr := range ts {
			if !tr.Tau {
				continue
			}
			k := tr.Next.Key()
			if seen[k] {
				continue
			}
			seen[k] = true
			out = append(out, tr.Next)
			work = append(work, tr.Next)
		}
	}
	return out
}

// refTraces enumerates the visible traces of p up to depth as a set of
// rendered strings, breadth-first over τ-closed state sets. States reached
// by the same visible event are merged (their continuations union), which
// mirrors the semantics without ever sharing code with the engine.
func refTraces(t *testing.T, p syntax.Proc, env sem.Env, depth int) map[string]bool {
	t.Helper()
	type frontier struct {
		states []op.State
		key    string
		depth  int
	}
	out := map[string]bool{"": true}
	queue := []frontier{{states: refTauClosure(t, op.NewState(p, env))}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.depth >= depth {
			continue
		}
		nextBy := map[string][]op.State{}
		for _, st := range cur.states {
			ts, err := op.Step(st)
			if err != nil {
				t.Fatalf("reference Step: %v", err)
			}
			for _, tr := range ts {
				if tr.Tau {
					continue
				}
				k := refEventKey(tr.Ev)
				nextBy[k] = append(nextBy[k], tr.Next)
			}
		}
		for ek, nexts := range nextBy {
			seen := map[string]bool{}
			var closed []op.State
			for _, n := range nexts {
				for _, c := range refTauClosure(t, n) {
					if k := c.Key(); !seen[k] {
						seen[k] = true
						closed = append(closed, c)
					}
				}
			}
			tk := cur.key + ek
			out[tk] = true
			queue = append(queue, frontier{states: closed, key: tk, depth: cur.depth + 1})
		}
	}
	return out
}

// TestInternedEngineMatchesStringReference compares the id-keyed engine's
// trace sets against refTraces on all seven specs at the standard depths.
func TestInternedEngineMatchesStringReference(t *testing.T) {
	for _, s := range specRoots {
		mod := loadSpec(t, s.file)
		for _, root := range s.roots {
			t.Run(s.file+"/"+root, func(t *testing.T) {
				p, err := mod.Proc(root)
				if err != nil {
					t.Fatal(err)
				}
				got, err := mod.Traces(context.Background(), p, csp.EngineOptions{Depth: s.depth})
				if err != nil {
					t.Fatal(err)
				}
				gotKeys := map[string]bool{}
				for _, tr := range got.Set.Traces() {
					var sb strings.Builder
					for _, e := range tr {
						sb.WriteString(refEventKey(e))
					}
					gotKeys[sb.String()] = true
				}
				want := refTraces(t, p, mod.Env(), s.depth)
				if len(gotKeys) != len(want) {
					t.Errorf("engine has %d traces, reference has %d", len(gotKeys), len(want))
				}
				for k := range want {
					if !gotKeys[k] {
						t.Errorf("reference trace missing from engine: %q", printable(k))
					}
				}
				for k := range gotKeys {
					if !want[k] {
						t.Errorf("engine trace missing from reference: %q", printable(k))
					}
				}
			})
		}
	}
}

// printable rewrites the separator bytes of a rendered trace for error
// messages, sorted output not needed — map iteration already randomises.
func printable(k string) string {
	k = strings.ReplaceAll(k, "\x01", ".")
	return strings.TrimSuffix(strings.ReplaceAll(k, "\x00", " "), " ")
}

// TestReferenceEnumeratorSane guards the reference itself: on a known tiny
// spec the reference trace count must match a hand-computable bound, so a
// bug that silenced both engines equally would still be caught.
func TestReferenceEnumeratorSane(t *testing.T) {
	mod := loadSpec(t, "copier.csp")
	p, err := mod.Proc("copier")
	if err != nil {
		t.Fatal(err)
	}
	want := refTraces(t, p, mod.Env(), 2)
	// copier = input?x -> wire!x -> copier over NAT width 2: at depth 2 the
	// traces are <>, <input.0>, <input.1>, <input.0 wire.0>, <input.1 wire.1>.
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, printable(k))
	}
	sort.Strings(keys)
	if len(want) != 5 {
		t.Fatalf("reference found %d traces at depth 2, want 5: %q", len(want), keys)
	}
	if !want[""] || !want[refEventKey(trace.Event{Chan: "input", Msg: value.Int(0)})+refEventKey(trace.Event{Chan: "wire", Msg: value.Int(0)})] {
		t.Fatalf("reference missing expected traces: %q", keys)
	}
}
