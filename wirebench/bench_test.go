package main

import (
	"math/rand/v2"
	"testing"
	"time"
)

func TestSelectionEval(t *testing.T) {
	q := quote{id: 7, sym: "S0042", price: 100.25, vol: 500}
	cases := []struct {
		s    selection
		want bool
	}{
		{selection{kind: selRange, lo: 100, hi: 100.5}, true},
		{selection{kind: selRange, lo: 100.25, hi: 101}, true}, // lower bound inclusive
		{selection{kind: selRange, lo: 99, hi: 100.25}, false}, // upper bound exclusive
		{selection{kind: selEq, sym: "S0042"}, true},
		{selection{kind: selEq, sym: "S0043"}, false},
		{selection{kind: selEqVol, sym: "S0042", vol: 500}, true},
		{selection{kind: selEqVol, sym: "S0042", vol: 501}, false},
		{selection{kind: selEqVol, sym: "S0001", vol: 0}, false},
	}
	for _, c := range cases {
		if got := c.s.eval(q); got != c.want {
			t.Errorf("%s on %+v = %v, want %v", c.s.sql("quotes"), q, got, c.want)
		}
	}
}

func TestMatchSet(t *testing.T) {
	missing, extra := matchSet([]int64{1, 3, 5, 7}, []int64{7, 3, 3, 9, 1})
	if len(missing) != 1 || missing[0] != 5 {
		t.Errorf("missing = %v, want [5]", missing)
	}
	if len(extra) != 2 || extra[0] != 3 || extra[1] != 9 {
		t.Errorf("extra = %v, want [3 9] (a duplicate and a stranger)", extra)
	}
	if m, e := matchSet([]int64{2, 4}, []int64{4, 2}); len(m)+len(e) != 0 {
		t.Errorf("equal sets: missing %v extra %v", m, e)
	}
}

// TestJoinRef works a window of two tuples per stream by hand:
//
//	id: 0 s(sym1) 1 n(sym1) 2 s(sym1) 3 s(sym2) 4 s(sym1) 5 n(sym1)
//
// n1 finds s0. s2 finds n1. At n5 the stocks window holds s3 and s4
// (s0 and s2 have slid out), so n5 finds only s4.
func TestJoinRef(t *testing.T) {
	r := &joinRef{w: 2}
	in := []jtuple{
		{id: 0, sym: 1}, {news: true, id: 1, sym: 1}, {id: 2, sym: 1},
		{id: 3, sym: 2}, {id: 4, sym: 1}, {news: true, id: 5, sym: 1},
	}
	want := [][][2]int64{nil, {{0, 1}}, {{2, 1}}, nil, {{4, 1}}, {{4, 5}}}
	for i, tu := range in {
		got := r.arrive(tu)
		if len(got) != len(want[i]) {
			t.Fatalf("tuple %d: %d matches, want %v", i, len(got), want[i])
		}
		for j, m := range got {
			if m.stock.id != want[i][j][0] || m.news.id != want[i][j][1] {
				t.Errorf("tuple %d match %d = (%d,%d), want %v", i, j, m.stock.id, m.news.id, want[i][j])
			}
		}
	}
}

// TestFaultSplit works small inputs by hand (s = stocks, n = news; w=1
// unless noted) and then checks the split against a simulation of the
// eviction fault.
func TestFaultSplit(t *testing.T) {
	S, N := false, true
	none := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = -1
		}
		return out
	}
	cases := []struct {
		name         string
		news         []bool
		w            int
		missed, kept map[int]int // tuple index -> partner index
		ok           bool
	}{
		// s2 shares n1's drain and pushes s0 out of the window.
		{"evicted by a later arrival", []bool{S, N, S}, 1, map[int]int{1: 0}, nil, true},
		// Nothing arrives after n1 that could evict s0.
		{"no later arrival", []bool{S, N}, 1, map[int]int{1: 0}, nil, false},
		// n1's drain must reach s3, so n2 shares it and must lose s0 too.
		{"drain-mate keeps what the drain evicts", []bool{S, N, N, S}, 1, map[int]int{1: 0}, map[int]int{2: 0}, false},
		{"drain-mate loses it too", []bool{S, N, N, S}, 1, map[int]int{1: 0, 2: 0}, nil, true},
		// Eviction takes the oldest first: n2 cannot lose s1 and keep s0.
		{"newer partner lost, older kept", []bool{S, S, N, S, S}, 2, map[int]int{2: 1}, map[int]int{2: 0}, false},
	}
	for _, c := range cases {
		missed, kept := none(len(c.news)), none(len(c.news))
		for i, p := range c.missed {
			missed[i] = p
		}
		for i, p := range c.kept {
			kept[i] = p
		}
		if ok, _ := faultSplit(c.news, c.w, missed, kept); ok != c.ok {
			t.Errorf("%s: faultSplit = %v, want %v", c.name, ok, c.ok)
		}
	}

	// Simulate the fault: drains of 1..8 tuples, each admitted whole
	// before it is routed; a partner survives iff it is still among the
	// last w arrivals of its stream at the end of the drain.
	rng := rand.New(rand.NewPCG(3, 4))
	const n, w = 4000, 8
	news, sym := make([]bool, n), make([]int, n)
	for i := range news {
		news[i], sym[i] = rng.IntN(2) == 1, rng.IntN(4)
	}
	missed, kept, newest := none(n), none(n), none(n)
	var arrived [2][]int // indexes by stream, in arrival order
	lost := 0
	for start := 0; start < n; {
		end := min(n, start+1+rng.IntN(8))
		seen := [2]int{len(arrived[0]), len(arrived[1])}
		for i := start; i < end; i++ {
			arrived[b2i(news[i])] = append(arrived[b2i(news[i])], i)
		}
		for i := start; i < end; i++ {
			y := 1 - b2i(news[i])
			before := seen[y] // y arrivals before tuple i
			for j := start; j < i; j++ {
				if b2i(news[j]) == y {
					before++
				}
			}
			for k := max(0, before-w); k < before; k++ {
				p := arrived[y][k]
				if sym[p] != sym[i] {
					continue
				}
				newest[i] = p
				if k < len(arrived[y])-w {
					missed[i] = max(missed[i], p)
					lost++
				} else if kept[i] < 0 {
					kept[i] = p
				}
			}
		}
		start = end
	}
	if lost == 0 {
		t.Fatal("simulation lost nothing; it does not exercise the fault")
	}
	if ok, at := faultSplit(news, w, missed, kept); !ok {
		t.Fatalf("faultSplit rejects the fault's own losses at tuple %d", at)
	}
	// Losing every match is not something the fault can do.
	if ok, _ := faultSplit(news, w, newest, none(n)); ok {
		t.Error("faultSplit explains losing every match")
	}
}

func TestFoldRef(t *testing.T) {
	f := foldRef{}
	f.add("a", 0.5)
	f.add("a", 0.125)
	f.add("b", 3)
	if bad, _ := f.diff(map[string]foldAgg{"a": {2, 0.625}, "b": {1, 3}}); bad != 0 {
		t.Errorf("exact fold reported %d bad keys", bad)
	}
	bad, ex := f.diff(map[string]foldAgg{"a": {2, 0.75}, "c": {1, 1}})
	if bad != 3 { // a wrong, b missing, c extra
		t.Errorf("bad = %d (%s), want 3", bad, ex)
	}
}

// TestPercentileTenBeyond pins the reporting rule: a percentile needs at
// least ten samples above its rank.
func TestPercentileTenBeyond(t *testing.T) {
	rec := func(n int) *latRec {
		r := &latRec{}
		for i := n; i >= 1; i-- {
			r.ms = append(r.ms, float64(i))
		}
		return r
	}
	cases := []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{1000, 0.99, true, 990},
		{999, 0.99, false, 0},
		{200, 0.95, true, 190},
		{199, 0.95, false, 0},
		{20, 0.50, true, 10},
		{19, 0.50, false, 0},
	}
	for _, c := range cases {
		v, ok := rec(c.n).percentile(c.p)
		if ok != c.ok || (ok && v != c.want) {
			t.Errorf("n=%d p=%v: got (%v, %v), want (%v, %v)", c.n, c.p, v, ok, c.want, c.ok)
		}
	}
}

// TestLatencyFromDueTime injects a sender stall: event 5 of a 1000/s
// schedule blocks the sender for 50ms. The system under test is
// instantaneous here (an event's result is read when it is written),
// so every latency is pure sender delay. Timed from the due time, the
// events queued behind the stall carry it; timed from the send they
// would all read zero.
func TestLatencyFromDueTime(t *testing.T) {
	const stall = 50 * time.Millisecond
	s := schedule{start: time.Now().Add(time.Millisecond), rate: 1000, n: 100}
	var rec latRec
	stalled := false
	lags, err := s.run(func(lo, hi int) error {
		if !stalled && lo <= 5 && 5 < hi {
			stalled = true
			time.Sleep(stall)
		}
		now := time.Now()
		for i := lo; i < hi; i++ {
			rec.add(s.due(i), now)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(lags) != s.n || len(rec.ms) != s.n {
		t.Fatalf("%d lags, %d samples, want %d", len(lags), len(rec.ms), s.n)
	}
	// Event 6 was due 1ms after event 5 and went out with it, after the
	// stall: at least stall-1ms late.
	if rec.ms[6] < float64(stall-time.Millisecond)/float64(time.Millisecond) {
		t.Errorf("event 6 latency %.2fms, want ≥ %v: the stall must count against queued events", rec.ms[6], stall-time.Millisecond)
	}
	// Events due after the stall's end are not charged for it (lag is
	// bounded by the sleep overshoot, far below the stall).
	if rec.ms[99] >= float64(stall)/float64(time.Millisecond) {
		t.Errorf("event 99 latency %.2fms: charged for a stall that ended before it was due", rec.ms[99])
	}
	if _, ok := rec.percentile(0.99); ok {
		t.Errorf("p99 of 100 samples reported: only one sample lies beyond it")
	}
	p50, ok := rec.percentile(0.50)
	if !ok || p50 < 0 {
		t.Errorf("p50 = %v, %v", p50, ok)
	}
}

// TestQuartilesMatchPython compares with statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5.5, 1.25, 9, 2, 8, 3, 3.5, 7, 6, 4.5, 1}, 2, 4.5, 7},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

// TestInputsDependOnlyOnSeed: the same seed gives the same corpus, so
// attempted is identical across runs.
func TestInputsDependOnlyOnSeed(t *testing.T) {
	gen := func(seed uint64) *quoteInputs {
		return genQuotes(rand.New(rand.NewPCG(seed, 1)), "quotes", 2, 10, 20)
	}
	a, b, c := gen(3), gen(3), gen(4)
	if len(a.all) != 2*(10*roundsN+20) {
		t.Fatalf("%d tuples", len(a.all))
	}
	same := func(x, y *quoteInputs) bool {
		for i := range x.all {
			if x.all[i] != y.all[i] {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("same seed, different inputs")
	}
	if same(a, c) {
		t.Error("different seeds, same inputs")
	}
}
