package main

// The closed-loop load generator and the per-response correctness gate.
// Each client sends its next request only after the previous response
// has been read and verified, as a CI job or an editor waiting on a
// verdict does.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// response is the part of a /v1 response body the gate reads.
type response struct {
	OK       bool   `json:"ok"`
	Error    string `json:"error"`
	CacheHit bool   `json:"cache_hit"`
	Traces   *struct {
		Count int `json:"count"`
	} `json:"traces"`
	Asserts []struct {
		OK bool `json:"ok"`
	} `json:"asserts"`
	Proofs []struct {
		OK bool `json:"ok"`
	} `json:"proofs"`
	Refine *struct {
		OK bool `json:"ok"`
	} `json:"refine"`
}

// verdict renders the verdict-bearing fields of a response compactly, so
// a replayed response can be compared with the recorded one.
func (r *response) verdict() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ok=%v", r.OK)
	if r.Traces != nil {
		fmt.Fprintf(&b, " count=%d", r.Traces.Count)
	}
	for _, a := range r.Asserts {
		fmt.Fprintf(&b, " assert=%v", a.OK)
	}
	for _, p := range r.Proofs {
		fmt.Fprintf(&b, " proof=%v", p.OK)
	}
	if r.Refine != nil {
		fmt.Fprintf(&b, " refine=%v", r.Refine.OK)
	}
	return b.String()
}

// gate checks one response: status 200, the expected verdicts, and, when
// wantHit is set, the tier the module was served from (cache_hit is true
// for the memory and store tiers, false for a compile). It returns the
// decoded response's verdict string.
func gate(status int, data []byte, want *expectation, wantHit *bool) (string, error) {
	if status != http.StatusOK {
		return "", fmt.Errorf("status %d: %.200s", status, data)
	}
	var r response
	if err := json.Unmarshal(data, &r); err != nil {
		return "", fmt.Errorf("undecodable body: %v", err)
	}
	if r.Error != "" {
		return "", fmt.Errorf("error in body: %s", r.Error)
	}
	if want.ok != nil && r.OK != *want.ok {
		return "", fmt.Errorf("ok = %v, want %v", r.OK, *want.ok)
	}
	if want.count > 0 && (r.Traces == nil || r.Traces.Count != want.count) {
		return "", fmt.Errorf("trace count mismatch, want %d", want.count)
	}
	if want.asserts != nil {
		if len(r.Asserts) != len(want.asserts) {
			return "", fmt.Errorf("%d assert verdicts, want %d", len(r.Asserts), len(want.asserts))
		}
		for i, a := range r.Asserts {
			if a.OK != want.asserts[i] {
				return "", fmt.Errorf("assert %d ok = %v, want %v", i+1, a.OK, want.asserts[i])
			}
		}
	}
	if want.proofs != nil {
		if len(r.Proofs) != len(want.proofs) {
			return "", fmt.Errorf("%d proof verdicts, want %d", len(r.Proofs), len(want.proofs))
		}
		for i, p := range r.Proofs {
			if p.OK != want.proofs[i] {
				return "", fmt.Errorf("proof %d ok = %v, want %v", i+1, p.OK, want.proofs[i])
			}
		}
	}
	if want.refine && r.Refine == nil {
		return "", fmt.Errorf("no refinement verdict")
	}
	if want.refineOK != nil && r.Refine.OK != *want.refineOK {
		return "", fmt.Errorf("refinement ok = %v, want %v", r.Refine.OK, *want.refineOK)
	}
	if wantHit != nil && r.CacheHit != *wantHit {
		return "", fmt.Errorf("served from the wrong tier: cache_hit = %v, want %v", r.CacheHit, *wantHit)
	}
	return r.verdict(), nil
}

// phase is one closed-loop pass over a corpus.
type phase struct {
	reqs    []request
	clients int
	// dur bounds the pass; zero means one pass over reqs. With wrap a
	// timed pass cycles over reqs, otherwise it also ends when they run
	// out.
	dur  time.Duration
	wrap bool
	// extend, when set, lets a timed pass run on past dur, up to
	// maxExtend times dur, for as long as it reports true.
	extend func() bool
	// onCount, when set, is called once, by the client that completes
	// the atCount-th verified response.
	atCount int
	onCount func()
	// hold, when set, is read-locked around every request, so a holder
	// of its write lock pauses the load with no request in flight.
	hold *sync.RWMutex
	// wantHit, when set, is the tier every response must report.
	wantHit *bool
	// record receives each request's verdict, indexed like reqs; replay,
	// when set, holds the verdicts each response must reproduce.
	record []string
	replay []string
}

// sample is one verified response: when it completed, relative to the
// start of its phase, and how long it took.
type sample struct {
	at, lat time.Duration
}

type phaseResult struct {
	samples   []sample
	attempted int
	failed    int
	start     time.Time
	elapsed   time.Duration
	errs      []string // the first few failures
	// peakRSS is the server's VmHWM in bytes over the first peakRequests
	// responses of a timed phase (over all of it, if it serves fewer).
	peakRSS int64
}

func (r *phaseResult) completed() int { return r.attempted - r.failed }

// drive runs p against base. Requests are taken in corpus order from a
// shared cursor.
func drive(client *http.Client, base string, p phase) phaseResult {
	var (
		next atomic.Int64
		done atomic.Int64
		mu   sync.Mutex
		out  phaseResult
		wg   sync.WaitGroup
	)
	start := time.Now()
	out.start = start
	for c := 0; c < p.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var got []sample
			var attempted, failed int
			var errs []string
			for {
				i := int(next.Add(1) - 1)
				if (p.dur == 0 || !p.wrap) && i >= len(p.reqs) {
					break
				}
				if el := time.Since(start); p.dur > 0 && el >= p.dur &&
					(p.extend == nil || el >= time.Duration(maxExtend*float64(p.dur)) || !p.extend()) {
					break
				}
				i %= len(p.reqs)
				r := &p.reqs[i]
				if p.hold != nil {
					p.hold.RLock()
				}
				t0 := time.Now()
				status, data, err := post(client, base+r.path, r.body)
				d := time.Since(t0)
				if p.hold != nil {
					p.hold.RUnlock()
				}
				attempted++
				var v string
				if err == nil {
					v, err = gate(status, data, &r.want, p.wantHit)
				}
				if err == nil && p.replay != nil && v != p.replay[i] {
					err = fmt.Errorf("verdict %q differs from the recorded %q", v, p.replay[i])
				}
				if err != nil {
					failed++
					if len(errs) < 3 {
						errs = append(errs, fmt.Sprintf("%s #%d: %v", r.path, i, err))
					}
					continue
				}
				if p.record != nil {
					p.record[i] = v
				}
				got = append(got, sample{t0.Add(d).Sub(start), d})
				if p.onCount != nil && done.Add(1) == int64(p.atCount) {
					p.onCount()
				}
			}
			mu.Lock()
			out.samples = append(out.samples, got...)
			out.attempted += attempted
			out.failed += failed
			out.errs = append(out.errs, errs...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	return out
}

func post(client *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// latencies returns the latencies of ss.
func latencies(ss []sample) []time.Duration {
	ds := make([]time.Duration, len(ss))
	for i, s := range ss {
		ds[i] = s.lat
	}
	return ds
}

// percentile is the nearest-rank q-quantile of ds (sorted in place).
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(q*float64(len(ds)) + 0.5)
	if i < 1 {
		i = 1
	}
	if i > len(ds) {
		i = len(ds)
	}
	return ds[i-1]
}
