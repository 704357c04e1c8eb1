package main

// Workload inputs. Every corpus is a pure function of the workload name,
// the seed and the repository's committed files: the server only ever
// sees the request bodies built here.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"cspsat/internal/gen"
	"cspsat/internal/parser"
	"cspsat/internal/scenario"
	"cspsat/internal/syntax"
)

// request is one generated /v1 call and the verdict its response must
// carry.
type request struct {
	path string // "/v1/traces", "/v1/check", "/v1/refine" or "/v1/prove"
	body []byte
	want expectation
	// uncached marks a request the server answers by recomputing every
	// time: a /v1/check under the failures model, whose verdicts the
	// result cache does not hold.
	uncached bool
}

// expectation is the correctness gate applied to one response body.
// Nil pointers and empty slices are unchecked.
type expectation struct {
	ok       *bool
	count    int // exact trace count, when positive
	asserts  []bool
	proofs   []bool
	refineOK *bool
	// refine demands a refinement verdict in the body (any verdict).
	refine bool
}

// body is the JSON request the benchmark sends; field names follow the
// server's wire contract.
type body struct {
	Source  string `json:"source"`
	Process string `json:"process,omitempty"`
	Engine  string `json:"engine,omitempty"`
	Model   string `json:"model,omitempty"`
	Impl    string `json:"impl,omitempty"`
	Spec    string `json:"spec,omitempty"`
	Depth   int    `json:"depth,omitempty"`
	Nat     int    `json:"nat,omitempty"`
	MaxLen  int    `json:"maxlen,omitempty"`
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return data
}

func boolp(b bool) *bool { return &b }

// corpusDigest is a SHA-256 over every request path and body in order, so
// two runs with one seed can prove they sent byte-identical inputs.
func corpusDigest(reqs []request) string {
	h := sha256.New()
	for _, r := range reqs {
		fmt.Fprintf(h, "%s %d\n", r.path, len(r.body))
		h.Write(r.body)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hotCorpus turns the hand-written scenarios (every committed file except
// failure-modes.yaml and the generated gen/ corpus) into requests whose
// verdicts must match the committed golden artifacts. A traces scenario
// becomes one request per deterministic engine it lists. The requests
// come in file order.
func hotCorpus(root string) ([]request, error) {
	dir := filepath.Join(root, "specs", "scenarios")
	files, err := filepath.Glob(filepath.Join(dir, "*.yaml"))
	if err != nil {
		return nil, err
	}
	var reqs []request
	cases := 0
	for _, f := range files {
		if filepath.Base(f) == "failure-modes.yaml" {
			continue
		}
		scens, err := scenario.LoadFile(f)
		if err != nil {
			return nil, err
		}
		golden, err := loadGolden(scenario.GoldenPath(f))
		if err != nil {
			return nil, err
		}
		for i := range scens {
			s := &scens[i]
			art, ok := golden[s.Name]
			if !ok {
				return nil, fmt.Errorf("%s: scenario %q has no golden artifact", f, s.Name)
			}
			rs, err := scenarioRequests(s, art)
			if err != nil {
				return nil, fmt.Errorf("%s: %v", f, err)
			}
			reqs = append(reqs, rs...)
			cases++
		}
	}
	if cases == 0 {
		return nil, fmt.Errorf("%s: no scenarios", dir)
	}
	return reqs, nil
}

func loadGolden(path string) (map[string]*scenario.Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g scenario.GoldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	out := map[string]*scenario.Artifact{}
	for i := range g.Artifacts {
		out[g.Artifacts[i].Name] = &g.Artifacts[i]
	}
	return out, nil
}

// scenarioRequests maps one scenario to the requests a client would send
// for it, with the golden verdicts as the expectation.
func scenarioRequests(s *scenario.Scenario, art *scenario.Artifact) ([]request, error) {
	src, err := s.SourceText()
	if err != nil {
		return nil, err
	}
	b := body{Source: src, Depth: s.Depth, Nat: s.Nat}
	if b.Depth <= 0 {
		b.Depth = 8
	}
	if b.Nat <= 0 {
		b.Nat = scenario.DefaultNat
	}
	switch s.Kind {
	case scenario.KindTraces:
		var reqs []request
		for _, eng := range s.EngineList() {
			if eng == "runtime" {
				continue
			}
			set, ok := art.Engines[eng]
			if !ok {
				return nil, fmt.Errorf("scenario %q: golden has no %s listing", s.Name, eng)
			}
			tb := b
			tb.Process, tb.Engine = s.Process, eng
			reqs = append(reqs, request{path: "/v1/traces", body: mustJSON(tb), want: expectation{ok: boolp(true), count: set.Count}})
		}
		return reqs, nil
	case scenario.KindCheck:
		b.Model = s.Model
		want := expectation{ok: boolp(art.OK)}
		for _, a := range art.Asserts {
			want.asserts = append(want.asserts, a.OK)
		}
		return []request{{path: "/v1/check", body: mustJSON(b), want: want, uncached: s.Model == "failures"}}, nil
	case scenario.KindRefine:
		b.Model, b.Impl, b.Spec = s.Model, s.Impl, s.Spec
		if art.Refine == nil {
			return nil, fmt.Errorf("scenario %q: golden has no refinement verdict", s.Name)
		}
		return []request{{path: "/v1/refine", body: mustJSON(b), want: expectation{ok: boolp(art.Refine.OK), refineOK: boolp(art.Refine.OK), refine: true}}}, nil
	case scenario.KindProve:
		b.Depth = 0
		b.MaxLen = s.MaxLen
		if b.MaxLen <= 0 {
			b.MaxLen = scenario.DefaultMaxLen
		}
		want := expectation{ok: boolp(art.OK)}
		for _, p := range art.Proofs {
			want.proofs = append(want.proofs, p.OK)
		}
		return []request{{path: "/v1/prove", body: mustJSON(b), want: want}}, nil
	}
	return nil, fmt.Errorf("scenario %q: unknown kind %q", s.Name, s.Kind)
}

// genCorpus draws n distinct random modules from the seeded internal/gen
// sampler, each extended with the §4 weakenings of scenario.genScenario
// ("weak" = main ⊓ STOP, "guard" = a!0 → main), and cycles four request
// shapes over them: op traces of main, denote traces of guard, main ⊑T
// weak (which holds by construction) and weak ⊑F guard. Duplicate sources
// are skipped, so every request carries a module no earlier request sent.
func genCorpus(seed int64, n int) []request {
	master := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	reqs := make([]request, 0, n)
	for len(reqs) < n {
		r := rand.New(rand.NewSource(master.Int63()))
		m, main := gen.Module(r, gen.Config{MaxDepth: 3, Defs: 2})
		m.MustDefine(syntax.Def{Name: "main", Body: main})
		m.MustDefine(syntax.Def{Name: "weak", Body: syntax.IChoice{L: syntax.Ref{Name: "main"}, R: syntax.Stop{}}})
		m.MustDefine(syntax.Def{Name: "guard", Body: syntax.Output{
			Ch:   syntax.ChanRef{Name: "a"},
			Val:  syntax.IntLit{Val: 0},
			Cont: syntax.Ref{Name: "main"},
		}})
		src := m.String()
		if seen[src] {
			continue
		}
		if _, err := parser.Parse(src); err != nil {
			continue
		}
		seen[src] = true
		b := body{Source: src, Depth: 4, Nat: 2}
		var req request
		switch len(reqs) % 4 {
		case 0:
			b.Process, b.Engine = "main", "op"
			req = request{path: "/v1/traces", body: mustJSON(b), want: expectation{ok: boolp(true)}}
		case 1:
			b.Process, b.Engine = "guard", "denote"
			req = request{path: "/v1/traces", body: mustJSON(b), want: expectation{ok: boolp(true)}}
		case 2:
			b.Impl, b.Spec, b.Model = "main", "weak", "traces"
			req = request{path: "/v1/refine", body: mustJSON(b), want: expectation{ok: boolp(true), refineOK: boolp(true), refine: true}}
		default:
			b.Impl, b.Spec, b.Model = "weak", "guard", "failures"
			req = request{path: "/v1/refine", body: mustJSON(b), want: expectation{refine: true}}
		}
		reqs = append(reqs, req)
	}
	return reqs
}
