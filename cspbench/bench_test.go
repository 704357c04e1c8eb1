package main

import (
	"testing"
	"time"
)

// TestCorporaDeterministic pins the contract that the seed alone fixes
// the inputs: one seed, one digest; another seed, another digest.
func TestCorporaDeterministic(t *testing.T) {
	a, b, c := genCorpus(7, 64), genCorpus(7, 64), genCorpus(8, 64)
	if corpusDigest(a) != corpusDigest(b) {
		t.Fatal("genCorpus: same seed, different corpus")
	}
	if corpusDigest(a) == corpusDigest(c) {
		t.Fatal("genCorpus: different seeds, same corpus")
	}
	seen := map[string]bool{}
	for _, r := range a {
		if seen[string(r.body)] {
			t.Fatalf("genCorpus repeated a request: %s", r.body)
		}
		seen[string(r.body)] = true
	}
	h1, err := hotCorpus("..")
	if err != nil {
		t.Fatal(err)
	}
	h2, _ := hotCorpus("..")
	if len(h1) == 0 || corpusDigest(h1) != corpusDigest(h2) {
		t.Fatal("hotCorpus: two loads differ")
	}
}

// TestGate checks that the correctness gate refuses each kind of wrong
// answer it is meant to catch.
func TestGate(t *testing.T) {
	want := expectation{ok: boolp(true), count: 3}
	good := []byte(`{"ok":true,"cache_hit":true,"traces":{"count":3}}`)
	if _, err := gate(200, good, &want, boolp(true)); err != nil {
		t.Fatalf("good response refused: %v", err)
	}
	for name, c := range map[string]struct {
		status int
		body   string
		hit    bool
	}{
		"status":  {503, `{"ok":true,"cache_hit":true,"traces":{"count":3}}`, true},
		"verdict": {200, `{"ok":false,"cache_hit":true,"traces":{"count":3}}`, true},
		"count":   {200, `{"ok":true,"cache_hit":true,"traces":{"count":4}}`, true},
		"tier":    {200, `{"ok":true,"cache_hit":false,"traces":{"count":3}}`, true},
		"error":   {200, `{"ok":true,"cache_hit":true,"error":"x","traces":{"count":3}}`, true},
		"garbage": {200, `{"ok":`, true},
	} {
		if _, err := gate(c.status, []byte(c.body), &want, boolp(c.hit)); err == nil {
			t.Errorf("%s: wrong response accepted", name)
		}
	}
	refine := expectation{refineOK: boolp(true), refine: true}
	if _, err := gate(200, []byte(`{"ok":true}`), &refine, nil); err == nil {
		t.Error("missing refinement verdict accepted")
	}
	if _, err := gate(200, []byte(`{"ok":false,"refine":{"ok":false}}`), &refine, nil); err == nil {
		t.Error("wrong refinement verdict accepted")
	}
}

func TestPercentile(t *testing.T) {
	var ds []time.Duration
	for i := 1000; i >= 1; i-- {
		ds = append(ds, time.Duration(i))
	}
	if p := percentile(ds, 0.5); p != 500 {
		t.Errorf("p50 = %d, want 500", p)
	}
	if p := percentile(ds, 0.99); p != 990 {
		t.Errorf("p99 = %d, want 990", p)
	}
}

// TestQuietWindows checks which windows a run reports over: the quiet
// ones when there are enough, else the least-stolen, in time order.
func TestQuietWindows(t *testing.T) {
	ws := make([]window, minQuiet+4)
	for i := range ws {
		ws[i] = window{dur: windowLen, cpu: time.Duration(i), steal: 0.2}
	}
	for i := 0; i < minQuiet; i++ {
		ws[2+i].steal = 0
	}
	if q := quietWindows(ws); len(q) != minQuiet || q[0].cpu != 2 || q[minQuiet-1].cpu != minQuiet+1 {
		t.Fatalf("%d quiet windows: got %d, from %v to %v", minQuiet, len(q), q[0].cpu, q[len(q)-1].cpu)
	}
	// Two quiet windows short: the two least-stolen others fill in.
	ws[2].steal, ws[3].steal = 0.1, 0.3
	ws[0].steal = 0.05
	q := quietWindows(ws)
	if len(q) != minQuiet {
		t.Fatalf("fallback: got %d windows, want %d", len(q), minQuiet)
	}
	for i := 1; i < len(q); i++ {
		if q[i].cpu <= q[i-1].cpu {
			t.Fatal("fallback windows out of time order")
		}
	}
	if q[0].cpu != 0 || q[1].cpu != 2 || q[2].cpu != 4 {
		t.Fatalf("fallback starts %v, %v, %v; want windows 0, 2 and 4", q[0].cpu, q[1].cpu, q[2].cpu)
	}
}

// TestScaled checks the direction of the host-speed scaling: on a host
// at half the reference speed, times halve and rates double.
func TestScaled(t *testing.T) {
	f := figures{reqPerS: 500, p50: 2, p99: 8, cpuPerReq: 1}.scaled(0.5)
	if f.reqPerS != 1000 || f.p50 != 1 || f.p99 != 4 || f.cpuPerReq != 0.5 {
		t.Fatalf("scaled(0.5) = %+v", f)
	}
	c := calRun{rounds: 3000, cpu: time.Second}.add(calRun{rounds: 3000, cpu: time.Second})
	if c.speed() != 1 {
		t.Fatalf("speed of 3000 rounds per CPU-second = %v, want 1", c.speed())
	}
	if got := calibrate(); got.rounds == 0 || got.cpu <= 0 {
		t.Fatalf("calibrate() = %+v", got)
	}
}
