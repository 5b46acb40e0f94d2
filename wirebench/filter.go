package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"strconv"
	"sync/atomic"
	"time"
)

// shape sizes one workload's run from --seconds: how many instances,
// what share of the time goes to latency segments (the rest to drain
// corpora sized at drainPerSec tuples per second), and the fixed
// offered rate of the latency phase. Every count depends only on
// --seconds, never on timing, so attempted is the same in every run.
type shape struct {
	instances    int
	setups       int // set-up samples per run: instances plus set-up-only launches
	latencyShare float64
	drainPerSec  float64
	rate         float64
}

// perRound is the size of one drain round.
func (s shape) perRound(seconds int) int {
	return int(s.drainPerSec*float64(seconds)*(1-s.latencyShare)) / (s.instances * roundsN)
}

// latencyN is the number of events in one instance's latency segment.
func (s shape) latencyN(seconds int) int {
	return int(s.rate * float64(seconds) * s.latencyShare / float64(s.instances))
}

const symbols = 2000

// genQuote draws one quote; prices and volumes are exact in decimal.
func genQuote(rng *rand.Rand, id int64) quote {
	return quote{
		id:    id,
		sym:   fmt.Sprintf("S%04d", rng.IntN(symbols)),
		price: float64(rng.IntN(40000)) / 4,
		vol:   int64(rng.IntN(1000)),
	}
}

// quoteInputs is the generated corpus of a quote workload, by instance.
type quoteInputs struct {
	all  []quote // by id
	inst []quoteInstance
}

// quoteInstance is one instance's share: a latency segment then drain
// rounds; its ids run from first to end, the drain rounds' from
// drainStart.
type quoteInstance struct {
	latency                corpus
	rounds                 []corpus
	first, drainStart, end int64
}

func genQuotes(rng *rand.Rand, stream string, instances, perRound, latencyN int) *quoteInputs {
	in := &quoteInputs{inst: make([]quoteInstance, instances)}
	id := int64(0)
	next := func(c *corpus) {
		q := genQuote(rng, id)
		id++
		in.all = append(in.all, q)
		c.add(q.line(stream))
	}
	for k := range in.inst {
		qi := &in.inst[k]
		qi.first = id
		for i := 0; i < latencyN; i++ {
			next(&qi.latency)
		}
		qi.drainStart = id
		qi.rounds = make([]corpus, roundsN)
		for r := range qi.rounds {
			for i := 0; i < perRound; i++ {
				next(&qi.rounds[r])
			}
		}
		qi.end = id
	}
	return in
}

// parseID reads a leading decimal integer up to the first comma.
func parseID(b []byte) (int64, bool) {
	if i := bytes.IndexByte(b, ','); i >= 0 {
		b = b[:i]
	}
	n, err := strconv.ParseInt(string(b), 10, 64)
	return n, err == nil
}

// ----------------------------------------------------------- shared_filter

const filterQueries = 1000

// registerFilter creates the quotes stream and every selection as a
// SELECT cursor, handing store the cursor → query map.
func registerFilter(sels []selection, store func(map[int]int)) func(*frontConn) error {
	return func(f *frontConn) error {
		if err := f.send("CREATE STREAM quotes (id int, sym string, price float, vol int) " + streamWith); err != nil {
			return err
		}
		if _, err := f.reply(30 * time.Second); err != nil {
			return err
		}
		stmts := make([]string, len(sels))
		for i, s := range sels {
			stmts[i] = s.sql("quotes")
		}
		if err := f.send(stmts...); err != nil {
			return err
		}
		m := map[int]int{}
		for i := range sels {
			c, err := f.cursor()
			if err != nil {
				return err
			}
			m[c] = i
		}
		store(m)
		return nil
	}
}

// filterShape runs twelve instances: drain throughput differs by up to
// twofold from one tcqd process to the next on this workload, and the
// run's figure is taken over all of them.
var filterShape = shape{instances: 12, setups: 12, latencyShare: 0.2, drainPerSec: 60000, rate: 1000}

// genSelections draws the standing queries: half narrow price ranges,
// the rest equality on sym, some with a volume bound, so each quote
// matches about two queries.
func genSelections(rng *rand.Rand) []selection {
	qs := make([]selection, filterQueries)
	for i := range qs {
		switch {
		case i%10 < 5:
			lo := float64(rng.IntN(39000)) / 4
			qs[i] = selection{kind: selRange, lo: lo, hi: lo + float64(80+rng.IntN(80))/4}
		case i%10 < 8:
			qs[i] = selection{kind: selEq, sym: fmt.Sprintf("S%04d", rng.IntN(symbols))}
		default:
			qs[i] = selection{kind: selEqVol, sym: fmt.Sprintf("S%04d", rng.IntN(symbols)), vol: int64(rng.IntN(1000))}
		}
	}
	return qs
}

const streamWith = "WITH (overflow = 'block', timeout_ms = 10000)"

func runSharedFilter(cfg config) (*outcome, error) {
	rng := rand.New(rand.NewPCG(cfg.seed, 0x5f))
	sels := genSelections(rng)
	perRound := filterShape.perRound(cfg.seconds)
	in := genQuotes(rng, "quotes", filterShape.instances, perRound, filterShape.latencyN(cfg.seconds))

	// Reference: the ids each query must return.
	want := make([][]int64, len(sels))
	hits := make([]int64, len(in.all)) // result rows per tuple
	for qi, s := range sels {
		for _, q := range in.all {
			if s.eval(q) {
				want[qi] = append(want[qi], q.id)
				hits[q.id]++
			}
		}
	}
	// rowsUpTo(k, id) counts instance k's expected rows for ids below id.
	rowsUpTo := func(k int, id int64) int64 {
		var n int64
		for i := in.inst[k].first; i < id; i++ {
			n += hits[i]
		}
		return n
	}

	o := &outcome{correct: true}
	if err := extraSetups(cfg, o, filterShape, registerFilter(sels, func(map[int]int) {})); err != nil {
		return nil, err
	}
	got := make([][]int64, len(sels))
	var st map[string]float64
	var sent int64
	for k := range in.inst {
		inst := &in.inst[k]
		rd := &outcome{correct: true} // owned by this instance's reader goroutine
		var cursorQ atomic.Pointer[map[int]int]
		var latStart atomic.Int64
		prog := newProgress()
		onRow := func(cursor int, payload []byte, at time.Time) {
			qi, ok := (*cursorQ.Load())[cursor]
			id, ok2 := parseID(payload)
			if !ok || !ok2 {
				rd.wrong("unparsable row for cursor %d: %q", cursor, payload)
				return
			}
			got[qi] = append(got[qi], id)
			if id < inst.drainStart {
				rd.lat.add(dueAt(&latStart, filterShape.rate, int(id-inst.first)), at)
			}
			prog.hit(at)
		}
		empty := map[int]int{}
		cursorQ.Store(&empty)
		register := registerFilter(sels, func(m map[int]int) { cursorQ.Store(&m) })
		sys, err := launchEngine(cfg, o, onRow, register)
		if err != nil {
			return nil, err
		}
		targets := make([]int64, roundsN)
		for r := range targets {
			targets[r] = rowsUpTo(k, inst.drainStart+int64((r+1)*perRound))
		}
		err = latencyPhase(o, &sys.sent, inst.latency, filterShape.rate, &latStart, prog, rowsUpTo(k, inst.drainStart))
		if err == nil {
			err = drainRounds(o, group{sys.p}, &sys.sent, inst.rounds, prog, targets)
		}
		var ist map[string]float64
		if err == nil {
			ist, err = sys.finish(o)
		}
		sys.stop() // the reader has stopped: got and rd are ours now
		if err != nil {
			return nil, err
		}
		o.merge(rd)
		st = addStats(st, ist)
		sent += sys.sent.n
		o.frontBytes += sys.front.rowBytes.Load()
	}

	o.attempted = int64(len(in.all)) + int64(len(sels))
	missingTuples := map[int64]bool{}
	for qi := range sels {
		missing, extra := matchSet(want[qi], got[qi])
		for _, id := range missing {
			missingTuples[id] = true
		}
		if len(extra) > 0 {
			o.wrong("query %d (%s): %d extra or duplicate rows, e.g. id %d", qi, sels[qi].sql("quotes"), len(extra), extra[0])
		}
	}
	if len(missingTuples) > 0 {
		o.fail(int64(len(missingTuples)), "%d tuples missing at least one result row", len(missingTuples))
	}
	if cfg.trace {
		var rows int64
		for _, h := range hits {
			rows += h
		}
		o.layer = engineLayers(st, sent, o.frontBytes, int64(len(in.all)), rows)
		if err := traceQuotes(cfg, o, "shared_filter", in, sels); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// ----------------------------------------------------------- result_stream

var streamShape = shape{instances: 10, setups: 15, latencyShare: 0.25, drainPerSec: 50000, rate: 2000}

// projections are the result_stream subscriptions: pass-through
// projections, so every input tuple yields one row on each. render is
// the expected row text.
var projections = []struct {
	cols   string
	render func(q quote, b []byte) []byte
}{
	{"id, sym", func(q quote, b []byte) []byte {
		b = strconv.AppendInt(b, q.id, 10)
		return append(append(b, ','), q.sym...)
	}},
	{"id, price", func(q quote, b []byte) []byte {
		b = strconv.AppendInt(b, q.id, 10)
		return strconv.AppendFloat(append(b, ','), q.price, 'g', -1, 64)
	}},
	{"id, vol, price", func(q quote, b []byte) []byte {
		b = strconv.AppendInt(b, q.id, 10)
		b = strconv.AppendInt(append(b, ','), q.vol, 10)
		return strconv.AppendFloat(append(b, ','), q.price, 'g', -1, 64)
	}},
	{"id, sym, price, vol", func(q quote, b []byte) []byte {
		b = strconv.AppendInt(b, q.id, 10)
		b = append(append(b, ','), q.sym...)
		b = strconv.AppendFloat(append(b, ','), q.price, 'g', -1, 64)
		return strconv.AppendInt(append(b, ','), q.vol, 10)
	}},
}

// registerStream creates the ticks stream and one SUBSCRIBE SELECT per
// projection, handing store the cursor → subscription map.
func registerStream(store func(map[int]int)) func(*frontConn) error {
	return func(f *frontConn) error {
		if err := f.send("CREATE STREAM ticks (id int, sym string, price float, vol int) " + streamWith); err != nil {
			return err
		}
		if _, err := f.reply(30 * time.Second); err != nil {
			return err
		}
		m := map[int]int{}
		for i, p := range projections {
			if err := f.send(fmt.Sprintf("SUBSCRIBE SELECT %s FROM ticks %s", p.cols, streamWith)); err != nil {
				return err
			}
			c, err := f.cursor()
			if err != nil {
				return err
			}
			m[c] = i
		}
		store(m)
		return nil
	}
}

func runResultStream(cfg config) (*outcome, error) {
	rng := rand.New(rand.NewPCG(cfg.seed, 0x7e))
	perRound := streamShape.perRound(cfg.seconds)
	in := genQuotes(rng, "ticks", streamShape.instances, perRound, streamShape.latencyN(cfg.seconds))
	nsub := len(projections)

	o := &outcome{correct: true}
	if err := extraSetups(cfg, o, streamShape, registerStream(func(map[int]int) {})); err != nil {
		return nil, err
	}
	var st map[string]float64
	var sent int64
	for k := range in.inst {
		inst := &in.inst[k]
		rd := &outcome{correct: true} // owned by this instance's reader goroutine
		next := make([]int64, nsub)   // per subscription, the id expected next
		for i := range next {
			next[i] = inst.first
		}
		var cursorS atomic.Pointer[map[int]int]
		var latStart atomic.Int64
		prog := newProgress()
		var scratch []byte
		onRow := func(cursor int, payload []byte, at time.Time) {
			si, ok := (*cursorS.Load())[cursor]
			if !ok {
				rd.wrong("row for unknown cursor %d", cursor)
				return
			}
			id := next[si]
			if id >= inst.end {
				rd.wrong("subscription %d: extra row %q", si, payload)
				return
			}
			scratch = projections[si].render(in.all[id], scratch[:0])
			if !bytes.Equal(scratch, payload) {
				rd.wrong("subscription %d: row %q, want %q (id order)", si, payload, scratch)
			}
			next[si]++
			if id < inst.drainStart {
				rd.lat.add(dueAt(&latStart, streamShape.rate, int(id-inst.first)), at)
			}
			prog.hit(at)
		}
		empty := map[int]int{}
		cursorS.Store(&empty)
		register := registerStream(func(m map[int]int) { cursorS.Store(&m) })
		sys, err := launchEngine(cfg, o, onRow, register)
		if err != nil {
			return nil, err
		}
		targets := make([]int64, roundsN)
		for r := range targets {
			targets[r] = (inst.drainStart - inst.first + int64((r+1)*perRound)) * int64(nsub)
		}
		err = latencyPhase(o, &sys.sent, inst.latency, streamShape.rate, &latStart, prog, (inst.drainStart-inst.first)*int64(nsub))
		if err == nil {
			err = drainRounds(o, group{sys.p}, &sys.sent, inst.rounds, prog, targets)
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
		short := int64(0)
		for si := range next {
			short = max(short, inst.end-next[si])
		}
		if short > 0 {
			o.fail(short, "instance %d: subscriptions short of %d rows", k, short)
		}
	}
	o.attempted = int64(len(in.all)) + int64(nsub*len(in.inst))
	if cfg.trace {
		o.layer = engineLayers(st, sent, o.frontBytes, int64(len(in.all)), int64(len(in.all)*nsub))
		if err := traceQuotes(cfg, o, "result_stream", in, nil); err != nil {
			return nil, err
		}
	}
	return o, nil
}
