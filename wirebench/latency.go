package main

import (
	"math"
	"sort"
	"time"
)

// latRec collects open-loop latency samples in milliseconds. Every
// sample is timed from the moment its event was due to be sent, not
// from when the sender got round to it, so a stall in the sender or the
// system shows up in every sample queued behind it.
type latRec struct {
	ms     []float64
	sorted bool
}

func (r *latRec) add(due, got time.Time) {
	r.ms = append(r.ms, float64(got.Sub(due))/float64(time.Millisecond))
	r.sorted = false
}

// percentile returns the nearest-rank p-quantile, and false when fewer
// than ten samples lie beyond it: a tail with fewer is not a tail.
func (r *latRec) percentile(p float64) (float64, bool) {
	n := len(r.ms)
	if n == 0 {
		return 0, false
	}
	if !r.sorted {
		sort.Float64s(r.ms)
		r.sorted = true
	}
	rank := int(math.Ceil(p*float64(n))) - 1
	rank = max(0, min(rank, n-1))
	if n-1-rank < 10 {
		return 0, false
	}
	return r.ms[rank], true
}

// lagStats is how late the open-loop sender ran behind its schedule.
type lagStats struct {
	n        int
	medianMs float64
	maxMs    float64
}

// schedule paces n events at a fixed rate starting at start. Event i is
// due at start + i/rate (or start + at[i] when at is set) whatever
// happened to earlier events; send writes every event that is due at
// once, so a slow write delays the sender (and shows as lag) but never
// moves a due time.
type schedule struct {
	start time.Time
	rate  float64
	n     int
	at    []time.Duration
}

func (s schedule) due(i int) time.Time {
	if s.at != nil {
		return s.start.Add(s.at[i])
	}
	return s.start.Add(time.Duration(float64(i) / s.rate * float64(time.Second)))
}

// run calls send(lo, hi) with each run of events [lo, hi) that has come
// due, until all n are sent, and returns how late (ms) each event went.
func (s schedule) run(send func(lo, hi int) error) ([]float64, error) {
	lags := make([]float64, 0, s.n)
	for i := 0; i < s.n; {
		now := time.Now()
		hi := i
		for hi < s.n && !s.due(hi).After(now) {
			hi++
		}
		if hi == i {
			time.Sleep(s.due(i).Sub(now))
			continue
		}
		for j := i; j < hi; j++ {
			lags = append(lags, float64(now.Sub(s.due(j)))/float64(time.Millisecond))
		}
		if err := send(i, hi); err != nil {
			return nil, err
		}
		i = hi
	}
	return lags, nil
}

func summarizeLag(lags []float64) lagStats {
	if len(lags) == 0 {
		return lagStats{}
	}
	mx := 0.0
	for _, l := range lags {
		mx = max(mx, l)
	}
	return lagStats{n: len(lags), medianMs: median(lags), maxMs: mx}
}
