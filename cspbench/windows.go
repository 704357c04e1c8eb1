package main

// Per-window statistics. The host this benchmark was tuned on is a shared
// VM whose hypervisor at times takes CPU time from it (steal, in
// /proc/stat): a 26% steal share cut warm-restart from 6,900 to 2,500
// req/s and raised its p99 from 1.5 to 10 ms, and such episodes last
// minutes. Within them steal comes in bursts, so the timed phase is cut
// into quarter-second windows, each with the host's steal share. A run
// reports over its quiet windows, those in which no clock tick was
// stolen; if fewer than minQuiet are quiet, over the minQuiet windows with
// the least steal. Steal is time the hypervisor gives to other guests,
// which the program under test cannot cause, so leaving those windows
// out drops host noise and no program cost. The windows are separated by
// short pauses in the load, in which the host's speed is calibrated
// (calibrate.go) and the counters are read.

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// windowLen is the length of one window; p99Samples is how many samples
// a group of consecutive reported windows must hold before its 99th
// percentile is taken, so at least 10 samples lie beyond it.
// quietSteal is the largest steal share of a quiet window, and minQuiet
// the fewest windows a run reports over (4 s of them). A timed phase that
// has fewer than minQuiet quiet windows when its time is up runs on, up
// to maxExtend times its length, until it has them.
const (
	windowLen  = 250 * time.Millisecond
	p99Samples = 1000
	quietSteal = 0
	minQuiet   = 16
	maxExtend  = 1.25
)

// reading is one reading of the server's CPU time and of the host's
// steal and total CPU clock ticks.
type reading struct {
	at           time.Time
	cpu          time.Duration
	steal, total int64
}

// pause is one break in the timed load: the readings when it began and
// ended, and the calibration run in it.
type pause struct {
	begin, end reading
	cal        calRun
}

// sampled is what sampleProc returns: the pauses it made, and the first
// error of the calibrator, after which it stops pausing.
type sampled struct {
	pauses []pause
	err    error
}

// sampleProc pauses the load held by hold now, after every windowLen of
// load until stop is closed, and once more then. In each pause, with no
// request in flight, it reads pid's CPU time and the host's CPU counters
// and has cal calibrate the host's speed. It returns the pauses on done,
// and keeps the count of quiet windows so far in quiet.
func sampleProc(pid int, cal *calibrator, hold *sync.RWMutex, stop <-chan struct{}, done chan<- sampled, quiet *atomic.Int64) {
	var last reading
	read := func() reading {
		// The server outlives the phase, so a read fails only if /proc
		// does; the window then counts no CPU rather than a negative one.
		last.at = time.Now()
		if cpu, err := cpuTime(pid); err == nil {
			last.cpu = cpu
		}
		if steal, total, err := hostCPU(); err == nil {
			last.steal, last.total = steal, total
		}
		return last
	}
	var out sampled
	take := func() {
		if out.err != nil {
			return
		}
		hold.Lock()
		defer hold.Unlock()
		p := pause{begin: read()}
		p.cal, out.err = cal.run()
		p.end = read()
		if out.err == nil {
			out.pauses = append(out.pauses, p)
		}
	}
	take()
	for {
		select {
		case <-time.After(windowLen):
			take()
			if n := len(out.pauses); n >= 2 {
				prev, cur := out.pauses[n-2].end, out.pauses[n-1].begin
				if total := cur.total - prev.total; total > 0 && float64(cur.steal-prev.steal)/float64(total) <= quietSteal {
					quiet.Add(1)
				}
			}
		case <-stop:
			take()
			done <- out
			return
		}
	}
}

// pauseCPU is the server's CPU time in the pauses ps as a share of the
// CPU time they had: work the server does while no request is in flight,
// which slows the calibration running beside it.
func pauseCPU(ps []pause) float64 {
	var used, had time.Duration
	for _, p := range ps {
		used += p.end.cpu - p.begin.cpu
		had += time.Duration(runtime.NumCPU()) * p.end.at.Sub(p.begin.at)
	}
	if had == 0 {
		return 0
	}
	return float64(used) / float64(had)
}

// window is one stretch of load between two pauses and the responses
// completed in it.
type window struct {
	start   time.Time
	dur     time.Duration
	cpu     time.Duration
	steal   float64 // share of the host's CPU time stolen by the hypervisor
	speed   float64 // the host's speed calibrated in the pauses around it
	samples []sample
}

// windows cuts res at the pauses. A final window shorter than half a
// window is dropped.
func windows(res phaseResult, ps []pause) []window {
	var ws []window
	for i := 0; i+1 < len(ps); i++ {
		a, b := ps[i].end, ps[i+1].begin
		w := window{start: a.at, dur: b.at.Sub(a.at), cpu: b.cpu - a.cpu, speed: ps[i].cal.add(ps[i+1].cal).speed()}
		if total := b.total - a.total; total > 0 {
			w.steal = float64(b.steal-a.steal) / float64(total)
		}
		if w.dur < windowLen/2 {
			continue
		}
		lo, hi := a.at.Sub(res.start), b.at.Sub(res.start)
		for _, s := range res.samples {
			if s.at >= lo && s.at < hi {
				w.samples = append(w.samples, s)
			}
		}
		ws = append(ws, w)
	}
	return ws
}

// figures are the timed figures a run reports over its windows.
type figures struct {
	reqPerS, p50, p99, cpuPerReq float64 // 1/s, ms, ms, ms
	p99Groups                    int
}

// windowStats is what a run reports from its windows: the figures scaled
// to the reference speed, and the same figures as measured.
type windowStats struct {
	scaled, raw figures
	// speed is the host's speed over the timed phase, a share of
	// refSpeed; stealMean and stealMax describe the host's CPU steal
	// over all windows, as shares. They are diagnostics, not metrics.
	speed, stealMean, stealMax float64
	// windows counts all windows, quiet those the figures come from.
	windows, quiet int
	// rows are the per-window figures, kept with the result for reading
	// a run's course afterwards.
	rows []windowRow
}

// windowRow is one window's figures, as measured.
type windowRow struct {
	ReqPerS   float64 `json:"req_per_s"`
	P50       float64 `json:"p50_ms"`
	CPUPerReq float64 `json:"cpu_ms_per_req"`
	Steal     float64 `json:"steal"`
	Speed     float64 `json:"speed"`
	Quiet     bool    `json:"quiet"`
}

// quietWindows returns the windows a run reports over, in time order.
func quietWindows(ws []window) []window {
	var quiet []window
	for _, w := range ws {
		if w.steal <= quietSteal {
			quiet = append(quiet, w)
		}
	}
	if len(quiet) >= minQuiet || len(quiet) == len(ws) {
		return quiet
	}
	order := make([]int, len(ws))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return ws[order[a]].steal < ws[order[b]].steal })
	order = order[:min(minQuiet, len(ws))]
	sort.Ints(order)
	quiet = quiet[:0]
	for _, i := range order {
		quiet = append(quiet, ws[i])
	}
	return quiet
}

// figuresOf takes the figures over ws: the rate is the median of the
// windows' rates, p50 the median of their medians, p99 the median over
// groups of consecutive windows holding p99Samples samples each.
func figuresOf(ws []window) figures {
	var f figures
	var rates, p50s, p99s []float64
	var group []time.Duration
	var cpu time.Duration
	var served int
	for _, w := range ws {
		rates = append(rates, float64(len(w.samples))/w.dur.Seconds())
		if len(w.samples) == 0 {
			continue
		}
		lat := latencies(w.samples)
		group = append(group, lat...)
		p50s = append(p50s, ms(percentile(lat, 0.50)))
		// CPU time comes in 10-ms clock ticks, coarse against a window,
		// so CPU per request is taken over all reported windows at once.
		cpu += w.cpu
		served += len(w.samples)
		if len(group) >= p99Samples {
			p99s = append(p99s, ms(percentile(group, 0.99)))
			group = nil
		}
	}
	if len(p99s) == 0 && len(group) > 0 {
		p99s = append(p99s, ms(percentile(group, 0.99)))
	}
	f.reqPerS, f.p50, f.p99, f.p99Groups = median(rates), median(p50s), median(p99s), len(p99s)
	if served > 0 {
		f.cpuPerReq = ms(cpu) / float64(served)
	}
	return f
}

// scaled returns f at the reference speed, for a host that ran at speed
// (a share of refSpeed): times are multiplied by speed, rates divided.
func (f figures) scaled(speed float64) figures {
	f.reqPerS /= speed
	f.p50 *= speed
	f.p99 *= speed
	f.cpuPerReq *= speed
	return f
}

// summarize takes the run's figures over the quiet windows of ws, on a
// host that ran at speed.
func summarize(ws []window, speed float64) windowStats {
	st := windowStats{speed: speed}
	for _, w := range ws {
		st.stealMean += w.steal / float64(len(ws))
		st.stealMax = max(st.stealMax, w.steal)
	}
	quiet := quietWindows(ws)
	st.raw = figuresOf(quiet)
	st.scaled = st.raw.scaled(st.speed)
	for _, w := range ws {
		row := windowRow{ReqPerS: float64(len(w.samples)) / w.dur.Seconds(), Steal: w.steal, Speed: w.speed}
		if len(w.samples) > 0 {
			row.P50 = ms(percentile(latencies(w.samples), 0.50))
			row.CPUPerReq = ms(w.cpu) / float64(len(w.samples))
		}
		for _, q := range quiet {
			row.Quiet = row.Quiet || q.start == w.start
		}
		st.rows = append(st.rows, row)
	}
	st.windows, st.quiet = len(ws), len(quiet)
	return st
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
