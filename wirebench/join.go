package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"strconv"
	"sync/atomic"
	"time"
)

// window_join: joinQueries standing stocks ⋈ news equi-joins on sym over
// sliding sequence windows of joinWindow tuples per stream, each with
// its own band filter on stocks.price. Keys are spread over joinKeys
// syms so an arriving tuple finds about one partner.
const (
	joinQueries = 32
	joinWindow  = 64
	joinKeys    = 64
)

var joinShape = shape{instances: 10, setups: 15, latencyShare: 0.25, drainPerSec: 80000, rate: 3000}

func joinDDL() []string {
	return []string{
		"CREATE STREAM stocks (id int, sym int, price float) " + streamWith,
		"CREATE STREAM news (id int, sym int, score int) " + streamWith,
	}
}

func joinSQL(b band) string {
	return fmt.Sprintf("SELECT stocks.id, news.id FROM stocks, news WHERE stocks.sym = news.sym AND stocks.price >= %s AND stocks.price < %s "+
		"for (t = ST; ; t++) { WindowIs(stocks, t - %d, t); WindowIs(news, t - %d, t); }",
		fmtF(b.lo), fmtF(b.hi), joinWindow-1, joinWindow-1)
}

// joinBands gives query q the band [32q+off, 32q+off+48): each price
// falls in one or two bands.
func joinBands(rng *rand.Rand) []band {
	off := float64(rng.IntN(32)) / 4
	bs := make([]band, joinQueries)
	for q := range bs {
		lo := 32*float64(q) - off
		bs[q] = band{lo: lo, hi: lo + 48}
	}
	return bs
}

func genJTuple(rng *rand.Rand, id int64) jtuple {
	t := jtuple{news: rng.IntN(2) == 1, id: id, sym: int64(rng.IntN(joinKeys))}
	if t.news {
		t.score = int64(rng.IntN(100))
	} else {
		t.price = float64(rng.IntN(4096)) / 4
	}
	return t
}

// joinInputs is the generated window_join corpus, by instance. Each
// round (and each latency segment) ends with a sentinel: one stocks
// tuple inside each query's band on a sym no other tuple of the
// instance uses, then one news tuple on that sym. The news tuple is the
// last of its round, so it shares a drain with no later arrival and its
// rows are never lost; each cursor's sentinel row arrives after that
// cursor's earlier rows.
type joinInputs struct {
	all  []jtuple // by id
	inst []joinInstance
}

type joinInstance struct {
	latency                corpus
	rounds                 []corpus
	first, drainStart, end int64
	sentinel               []int64 // news id of each sentinel: the latency segment's, then each round's
}

func genJoin(rng *rand.Rand, bands []band, instances, perRound, latencyN int) *joinInputs {
	in := &joinInputs{inst: make([]joinInstance, instances)}
	id := int64(0)
	for k := range in.inst {
		ji := &in.inst[k]
		emit := func(c *corpus, t jtuple) {
			in.all = append(in.all, t)
			c.add(t.line())
			id++
		}
		sentinel := func(c *corpus, r int) {
			sym := int64(joinKeys + r)
			for _, b := range bands {
				emit(c, jtuple{id: id, sym: sym, price: b.lo + 4})
			}
			ji.sentinel = append(ji.sentinel, id)
			emit(c, jtuple{news: true, id: id, sym: sym})
		}
		ji.first = id
		for i := 0; i < latencyN; i++ {
			emit(&ji.latency, genJTuple(rng, id))
		}
		sentinel(&ji.latency, 0)
		ji.drainStart = id
		ji.rounds = make([]corpus, roundsN)
		for r := range ji.rounds {
			for i := 0; i < perRound; i++ {
				emit(&ji.rounds[r], genJTuple(rng, id))
			}
			sentinel(&ji.rounds[r], r+1)
		}
		ji.end = id
	}
	return in
}

// joinKey packs (query, stock id, news id) into one map key.
func joinKey(q int, sid, nid int64) int64 { return sid<<32 | nid<<6 | int64(q) }

// registerJoin creates both streams and one SELECT cursor per band,
// handing store the cursor → query map.
func registerJoin(bands []band, store func(map[int]int)) func(*frontConn) error {
	return func(f *frontConn) error {
		if err := f.send(joinDDL()...); err != nil {
			return err
		}
		for range joinDDL() {
			if _, err := f.reply(30 * time.Second); err != nil {
				return err
			}
		}
		stmts := make([]string, len(bands))
		for q, b := range bands {
			stmts[q] = joinSQL(b)
		}
		if err := f.send(stmts...); err != nil {
			return err
		}
		m := map[int]int{}
		for q := range bands {
			c, err := f.cursor()
			if err != nil {
				return err
			}
			m[c] = q
		}
		store(m)
		return nil
	}
}

func runWindowJoin(cfg config) (*outcome, error) {
	rng := rand.New(rand.NewPCG(cfg.seed, 0x10))
	bands := joinBands(rng)
	// Each latency segment gives up joinQueries+1 slots to its sentinel
	// so it takes as long as its share of the run.
	in := genJoin(rng, bands, joinShape.instances, joinShape.perRound(cfg.seconds), joinShape.latencyN(cfg.seconds)-joinQueries-1)

	// Reference, per instance (each starts with empty windows): every
	// expected row, and how many rows carry each sentinel's news id
	// (the completion count of its round).
	want := map[int64]int8{}
	sentinelRows := map[int64]int64{}
	for _, inst := range in.inst {
		ref := &joinRef{w: joinWindow}
		for _, t := range in.all[inst.first:inst.end] {
			for _, m := range ref.arrive(t) {
				for q, b := range bands {
					if b.has(m.stock.price) {
						want[joinKey(q, m.stock.id, m.news.id)] = 0
						sentinelRows[m.news.id]++
					}
				}
			}
		}
	}

	o := &outcome{correct: true}
	if err := extraSetups(cfg, o, joinShape, registerJoin(bands, func(map[int]int) {})); err != nil {
		return nil, err
	}
	var st map[string]float64
	var sent int64
	var stemPeak float64
	for k := range in.inst {
		inst := &in.inst[k]
		isSentinel := map[int64]bool{}
		targets := make([]int64, roundsN+1)
		var cum int64
		for r, sid := range inst.sentinel {
			isSentinel[sid] = true
			cum += sentinelRows[sid]
			targets[r] = cum
		}
		rd := &outcome{correct: true} // owned by this instance's reader goroutine
		var cursorQ atomic.Pointer[map[int]int]
		var latStart atomic.Int64
		prog := newProgress()
		onRow := func(cursor int, payload []byte, at time.Time) {
			q, ok := (*cursorQ.Load())[cursor]
			comma := bytes.IndexByte(payload, ',')
			if !ok || comma < 0 {
				rd.wrong("unparsable row for cursor %d: %q", cursor, payload)
				return
			}
			sid, err1 := strconv.ParseInt(string(payload[:comma]), 10, 64)
			nid, err2 := strconv.ParseInt(string(payload[comma+1:]), 10, 64)
			if err1 != nil || err2 != nil || sid < inst.first || nid < inst.first || sid >= inst.end || nid >= inst.end {
				rd.wrong("unparsable row for cursor %d: %q", cursor, payload)
				return
			}
			key := joinKey(q, sid, nid)
			n, ok := want[key]
			switch {
			case !ok:
				rd.wrong("query %d: row (%d,%d) is not an in-window match", q, sid, nid)
			case n > 0:
				rd.wrong("query %d: duplicate row (%d,%d)", q, sid, nid)
			default:
				want[key] = 1
			}
			if later := max(sid, nid); later < inst.drainStart {
				rd.lat.add(dueAt(&latStart, joinShape.rate, int(later-inst.first)), at)
			}
			if isSentinel[nid] {
				prog.hit(at)
			}
		}
		empty := map[int]int{}
		cursorQ.Store(&empty)
		register := registerJoin(bands, func(m map[int]int) { cursorQ.Store(&m) })
		sys, err := launchEngine(cfg, o, onRow, register)
		if err != nil {
			return nil, err
		}
		err = latencyPhase(o, &sys.sent, inst.latency, joinShape.rate, &latStart, prog, targets[0])
		if err == nil {
			err = drainRounds(o, group{sys.p}, &sys.sent, inst.rounds, prog, targets[1:])
		}
		if err == nil && cfg.trace {
			var ss map[string]float64
			if ss, err = sys.front.stats("tcq_stem_size"); err == nil {
				stemPeak = max(stemPeak, maxStats(ss, "tcq_stem_size"))
			}
		}
		var ist map[string]float64
		if err == nil {
			ist, err = sys.finish(o)
		}
		sys.stop()
		if err != nil {
			return nil, err
		}
		o.merge(rd)
		st = addStats(st, ist)
		sent += sys.sent.n
		o.frontBytes += sys.front.rowBytes.Load()
	}

	// Matches the wire run missed. The eviction fault loses a tuple's
	// oldest partners when later arrivals of the other stream share its
	// drain, so which tuples miss depends on how arrivals grouped into
	// drains, and that changes from run to run. A miss is therefore not
	// counted as a failed operation; instead every instance's misses
	// must be ones the fault can produce under one split of its input
	// into contiguous drains (faultSplit), and any other short answer
	// makes the run incorrect.
	missed := 0
	for k := range in.inst {
		inst := &in.inst[k]
		n := int(inst.end - inst.first)
		news := make([]bool, n)
		for i := range news {
			news[i] = in.all[inst.first+int64(i)].news
		}
		newestMissed, oldestKept, partial := partnerBounds(want, inst.first, n)
		if partial > 0 {
			o.wrong("instance %d: %d join pairs returned by some but not all of the queries whose band holds them", k, partial)
		}
		for _, m := range newestMissed {
			if m >= 0 {
				missed++
			}
		}
		if ok, at := faultSplit(news, joinWindow, newestMissed, oldestKept); !ok {
			o.wrong("instance %d: missed join rows near tuple %d that no grouping of arrivals into drains explains", k, inst.first+int64(at))
		}
	}
	if missed > 0 {
		o.notes = append(o.notes, fmt.Sprintf("wire run: %d of %d input tuples missed at least one in-window match (eviction fault, not counted as failed)", missed, len(in.all)))
	}
	o.attempted = int64(len(in.all)) + int64(joinQueries*len(in.inst))
	if cfg.trace {
		o.layer = engineLayers(st, sent, o.frontBytes, int64(len(in.all)), int64(len(want)))
		o.layer["stem.size_peak"] = stemPeak
		o.layer["join.wire_missed_per_ktuple"] = float64(missed) * 1000 / float64(len(in.all))
		if err := traceJoin(cfg, o, in, bands); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// partnerBounds reads one instance's rows (want: joinKey → 1 once
// received) by the later tuple of each stocks-news pair. For input
// index i (id first+i) it gives the index of the newest partner whose
// pair no query returned and of the oldest partner whose pair was
// returned, -1 for none. All queries share the SteMs, so a pair's rows
// are returned or lost together; partial counts the pairs returned by
// some but not all of the queries whose band holds them.
func partnerBounds(want map[int64]int8, first int64, n int) (newestMissed, oldestKept []int, partial int) {
	type tally struct{ expected, got int }
	pairs := map[int64]tally{}
	for key, got := range want {
		if sid := key >> 32; sid < first || sid >= first+int64(n) {
			continue
		}
		t := pairs[key&^63]
		t.expected++
		t.got += int(got)
		pairs[key&^63] = t
	}
	newestMissed, oldestKept = make([]int, n), make([]int, n)
	for i := range newestMissed {
		newestMissed[i], oldestKept[i] = -1, -1
	}
	for pk, t := range pairs {
		sid, nid := pk>>32, (pk>>6)&(1<<26-1)
		later, partner := int(max(sid, nid)-first), int(min(sid, nid)-first)
		switch {
		case t.got == 0:
			newestMissed[later] = max(newestMissed[later], partner)
		case t.got < t.expected:
			partial++
		case oldestKept[later] < 0 || partner < oldestKept[later]:
			oldestKept[later] = partner
		}
	}
	return newestMissed, oldestKept, partial
}

// faultSplit reports whether one instance's missed matches are all ones
// the eviction fault can produce. cacq.Engine.Push trims a stream's
// SteM to its window as each tuple is admitted, and a drain is routed
// only once all of it has been admitted, so a tuple probing stream y
// sees y as it stands at the end of its drain: of its partners it keeps
// exactly those still among the last w arrivals of y there. news[i] is
// tuple i's stream; newestMissed[i] and oldestKept[i] are input indexes
// of its partners (-1 for none). Each bounds where tuple i's drain may
// end; faultSplit looks for a split of the input into contiguous drains
// that meets every bound. Taking the shortest feasible drain from each
// start is safe: cutting any feasible split's first drain at that point
// leaves a feasible rest. It returns false and the first tuple that no
// drain can hold when there is no such split.
func faultSplit(news []bool, w int, newestMissed, oldestKept []int) (bool, int) {
	n := len(news)
	// pos[i] is tuple i's arrival number in its own stream, from 1;
	// at[s][k] is the index of stream s's k-th arrival.
	pos := make([]int, n)
	at := [2][]int{{-1}, {-1}}
	for i := range news {
		s := b2i(news[i])
		at[s] = append(at[s], i)
		pos[i] = len(at[s]) - 1
	}
	// Partner p of stream y is gone at the end of a drain iff y's
	// arrivals up to there number at least pos[p]+w.
	lo, hi := make([]int, n), make([]int, n)
	for i := range news {
		y := at[1-b2i(news[i])]
		lo[i], hi[i] = i, n-1
		if m := newestMissed[i]; m >= 0 {
			if k := pos[m] + w; k < len(y) {
				lo[i] = max(i, y[k])
			} else {
				lo[i] = n
			}
		}
		if kept := oldestKept[i]; kept >= 0 {
			if k := pos[kept] + w; k < len(y) {
				hi[i] = y[k] - 1
			}
		}
	}
	for s := 0; s < n; {
		lo0, hi0, e := 0, n-1, s
		for ; e < n; e++ {
			lo0, hi0 = max(lo0, lo[e]), min(hi0, hi[e])
			if e > hi0 {
				return false, s
			}
			if lo0 <= e {
				break
			}
		}
		if e == n {
			return false, s
		}
		s = e + 1
	}
	return true, -1
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
