package main

// The traced run: per-layer metrics. Counters come from the wire run's
// tcqd (SHOW STATS) and coordinator (STATS); span metrics come from
// replaying the same drain corpus in-process, with the benchmark's own
// spans around each call into a layer's public functions. The replay
// runs twice, spans off and on, so the tracing overhead is measured.

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"telegraphcq/internal/catalog"
	"telegraphcq/internal/cluster"
	"telegraphcq/internal/egress"
	"telegraphcq/internal/executor"
	"telegraphcq/internal/fanout"
	"telegraphcq/internal/fjord"
	"telegraphcq/internal/flux"
	"telegraphcq/internal/ingress"
	"telegraphcq/internal/operator"
	"telegraphcq/internal/plan"
	"telegraphcq/internal/sql"
	"telegraphcq/internal/tuple"
)

// layerUnits lists every per-layer metric with its unit. Every traced
// run prints all of them; a layer a workload does not reach reads 0.
var layerUnits = map[string]string{
	"ingress.parse_ns_per_row":        "ns",
	"server.bytes_in_per_tuple":       "B",
	"server.bytes_out_per_row":        "B",
	"server.register_us_per_query":    "us",
	"sql.parse_us_per_query":          "us",
	"executor.push_ns_per_tuple":      "ns",
	"executor.idle_polls_per_ktuple":  "count",
	"fjord.enqueue_stalls_per_ktuple": "count",
	"fjord.block_timeouts":            "count",
	"eddy.routed_per_tuple":           "count",
	"eddy.choose_per_tuple":           "count",
	"operator.gfilter_ns_per_tuple":   "ns",
	"operator.gfilter_pass_per_tuple": "ratio",
	"operator.project_ns_per_row":     "ns",
	"stem.work_ns_per_tuple":          "ns",
	"stem.matches_per_probe":          "ratio",
	"stem.scan_probes_per_ktuple":     "count",
	"stem.evicted_per_tuple":          "ratio",
	"stem.size_peak":                  "count",
	"egress.next_ns_per_row":          "ns",
	"egress.encode_ns_per_row":        "ns",
	"egress.dropped_rows":             "count",
	"fanout.rows_per_frame":           "ratio",
	"fanout.encodes_per_frame":        "ratio",
	"fanout.shed_rows":                "count",
	"cluster.route_ns_per_tuple":      "ns",
	"cluster.node_skew":               "ratio",
	"cluster.barrier_ms":              "ms",
	"cluster.retransmits_per_ktuple":  "count",
	"cluster.ack_lag_tuples":          "count",
	"flux.fold_ns_per_tuple":          "ns",
	"join.wire_missed_per_ktuple":     "count",
	"runtime.allocs_per_tuple":        "count",
	"runtime.alloc_bytes_per_tuple":   "B",
	"runtime.gc_per_mtuple":           "count",
	"trace.tuples_per_s_spans_off":    "1/s",
	"trace.tuples_per_s_spans_on":     "1/s",
	"trace.overhead_pct":              "%",
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// zeroLayers is every per-layer metric at 0, for the layers a
// workload does not reach.
func zeroLayers() map[string]float64 {
	m := map[string]float64{}
	for name := range layerUnits {
		m[name] = 0
	}
	return m
}

// engineLayers derives the counter-based per-layer metrics from the
// summed SHOW STATS of the wire run's instances.
func engineLayers(st map[string]float64, sent, recv, tuples, rows int64) map[string]float64 {
	m := zeroLayers()
	kt := float64(tuples) / 1000
	admitted := sumStats(st, "tcq_eddy_admitted_total")
	gfRouted := sumStats(st, "tcq_module_routed_total", "gfilter(")
	m["server.bytes_in_per_tuple"] = ratio(float64(sent), float64(tuples))
	m["server.bytes_out_per_row"] = ratio(float64(recv), float64(rows))
	m["executor.idle_polls_per_ktuple"] = ratio(sumStats(st, "tcq_eo_dequeue_empty_total"), kt)
	m["fjord.enqueue_stalls_per_ktuple"] = ratio(sumStats(st, "tcq_eo_enqueue_stalls_total"), kt)
	m["fjord.block_timeouts"] = sumStats(st, "tcq_stream_block_timeouts_total")
	m["eddy.routed_per_tuple"] = ratio(sumStats(st, "tcq_eddy_routed_total"), admitted)
	m["eddy.choose_per_tuple"] = ratio(sumStats(st, "tcq_eddy_choose_total"), admitted)
	m["operator.gfilter_ns_per_tuple"] = ratio(sumStats(st, "tcq_module_work_ns_total", "gfilter("), gfRouted)
	m["operator.gfilter_pass_per_tuple"] = ratio(sumStats(st, "tcq_module_passed_total", "gfilter("), gfRouted)
	m["stem.work_ns_per_tuple"] = ratio(sumStats(st, "tcq_module_work_ns_total", "stem("), admitted)
	m["stem.matches_per_probe"] = ratio(sumStats(st, "tcq_stem_matches_total"), sumStats(st, "tcq_stem_probes_total"))
	m["stem.scan_probes_per_ktuple"] = ratio(sumStats(st, "tcq_stem_scan_probes_total"), kt)
	m["stem.evicted_per_tuple"] = ratio(sumStats(st, "tcq_stem_evicted_total"), sumStats(st, "tcq_stem_builds_total"))
	m["egress.dropped_rows"] = sumStats(st, "tcq_result_dropped_total")
	frames := sumStats(st, "tcq_fanout_frames_total")
	m["fanout.rows_per_frame"] = ratio(sumStats(st, "tcq_fanout_rows_total"), frames)
	m["fanout.encodes_per_frame"] = ratio(sumStats(st, "tcq_fanout_encodes_total"), frames)
	m["fanout.shed_rows"] = sumStats(st, "tcq_subscriber_shed_total")
	return m
}

// ----------------------------------------------------------------- spans

type spanKind uint8

const (
	spParseRow spanKind = iota
	spPush
	spSQLParse
	spSubmit
	spNext
	spAppendText
	spProject
	spRoute
	spBarrier
	spCollect
	spFold
	nSpanKinds
)

var spanNames = [nSpanKinds]string{
	"ingress.ParseRow", "executor.Push", "sql.Parse", "executor.Submit",
	"egress.Next", "tuple.AppendText", "operator.Project.Apply",
	"cluster.Route", "cluster.Barrier", "cluster.Collect", "flux.Fold",
}

// span is one timed call: the tuple id it served (-1 for a batch or a
// query), start and end in ns from the log's origin.
type span struct {
	kind       spanKind
	id         int64
	start, end int64
}

// keepSpans bounds how many spans a log keeps for the spans file; the
// per-kind totals cover every span.
const keepSpans = 100000

// spanLog records spans from one goroutine. Off, it records nothing
// and costs a branch per call.
type spanLog struct {
	on    bool
	t0    time.Time
	kept  []span
	ns    [nSpanKinds]int64
	items [nSpanKinds]int64
}

func newSpanLog(on bool, t0 time.Time) *spanLog { return &spanLog{on: on, t0: t0} }

func (l *spanLog) begin() int64 {
	if !l.on {
		return 0
	}
	return int64(time.Since(l.t0))
}

// end closes a span begun at start that covered items rows or tuples.
func (l *spanLog) end(k spanKind, id, start, items int64) {
	if !l.on {
		return
	}
	e := int64(time.Since(l.t0))
	l.ns[k] += e - start
	l.items[k] += items
	if len(l.kept) < keepSpans {
		l.kept = append(l.kept, span{kind: k, id: id, start: start, end: e})
	}
}

// nsPer is the mean span time per item of kind k across logs.
func nsPer(k spanKind, logs ...*spanLog) float64 {
	var ns, items int64
	for _, l := range logs {
		ns += l.ns[k]
		items += l.items[k]
	}
	return ratio(float64(ns), float64(items))
}

// writeSpans writes the kept spans of every log as TSV.
func writeSpans(cfg config, workload string, logs ...*spanLog) (string, error) {
	path := filepath.Join(cfg.workDir, fmt.Sprintf("spans-%s-seed%d.tsv", workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "span\tid\tstart_ns\tdur_ns")
	for _, l := range logs {
		for _, s := range l.kept {
			fmt.Fprintf(w, "%s\t%d\t%d\t%d\n", spanNames[s.kind], s.id, s.start, s.end-s.start)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// passResult is one in-process replay.
type passResult struct {
	elapsed time.Duration
	tuples  int64
	mallocs uint64
	bytes   uint64
	gcs     uint32
}

// measured runs fn, a replay returning how many tuples it pushed,
// between two memory-statistics readings.
func measured(fn func() (int64, error)) (passResult, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	tuples, err := fn()
	if err != nil {
		return passResult{}, err
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return passResult{elapsed: el, tuples: tuples, mallocs: m1.Mallocs - m0.Mallocs,
		bytes: m1.TotalAlloc - m0.TotalAlloc, gcs: m1.NumGC - m0.NumGC}, nil
}

// addPassLayers records the replay-level metrics: the allocation
// profile of the spans-off pass and both passes' throughput.
func addPassLayers(m map[string]float64, off, on passResult) {
	n := float64(off.tuples)
	m["runtime.allocs_per_tuple"] = float64(off.mallocs) / n
	m["runtime.alloc_bytes_per_tuple"] = float64(off.bytes) / n
	m["runtime.gc_per_mtuple"] = float64(off.gcs) * 1e6 / n
	tOff := n / off.elapsed.Seconds()
	tOn := float64(on.tuples) / on.elapsed.Seconds()
	m["trace.tuples_per_s_spans_off"] = tOff
	m["trace.tuples_per_s_spans_on"] = tOn
	m["trace.overhead_pct"] = (tOff - tOn) / tOff * 100
}

// ------------------------------------------------------- engine replay

// engineReplay is one in-process run of an engine workload's drain
// corpus: streams, standing queries, and input lines.
type engineReplay struct {
	ddl     []string
	queries []string // SELECT statements
	fanout  bool     // subscribe through fan-out (SubmitFanout) instead of Submit
	lines   []corpus
}

// run replays the corpus through an executor built like tcqd's, with a
// consumer goroutine draining every subscription.
func (r *engineReplay) run(prod, cons *spanLog) (int64, error) {
	cat := catalog.New()
	x := executor.New(cat, executor.Options{Mode: executor.ClassByFootprint})
	defer x.Close()
	for _, d := range r.ddl {
		st, err := sql.Parse(d)
		if err != nil {
			return 0, err
		}
		cs := st.(*sql.CreateStream)
		src, err := cat.CreateStream(cs.Name, cs.Cols, false)
		if err != nil {
			return 0, err
		}
		pol, err := fjord.ParseOverflowPolicy(cs.With.Overflow)
		if err != nil {
			return 0, err
		}
		src.SetQoS(fjord.QoS{Policy: pol, BlockTimeout: time.Duration(cs.With.TimeoutMs) * time.Millisecond})
	}
	var subs []*egress.Subscription
	var fsubs []*fanout.Subscriber
	block := fanout.SubOptions{QoS: fjord.QoS{Policy: fjord.Block, BlockTimeout: 10 * time.Second}}
	for _, q := range r.queries {
		s := prod.begin()
		st, err := sql.Parse(q)
		prod.end(spSQLParse, -1, s, 1)
		if err != nil {
			return 0, err
		}
		sel := st.(*sql.Select)
		s = prod.begin()
		if r.fanout {
			var sub *fanout.Subscriber
			_, sub, err = x.SubmitFanout(sel, block)
			fsubs = append(fsubs, sub)
		} else {
			var sub *egress.Subscription
			_, sub, err = x.Submit(sel)
			subs = append(subs, sub)
		}
		prod.end(spSubmit, -1, s, 1)
		if err != nil {
			return 0, err
		}
	}

	done := make(chan struct{})     // closed when the producer has finished and barriered
	consumed := make(chan int64, 1) // the consumer's row count, once drained
	go func() {
		consumed <- consume(subs, fsubs, done, cons)
	}()
	var tuples int64
	var perr error
	for _, c := range r.lines {
		for i := 0; i < c.n() && perr == nil; i++ {
			line := strings.TrimSpace(string(c.span(i, i+1)))
			stream, rest, _ := strings.Cut(line, ",")
			src, err := cat.Lookup(stream)
			if err != nil {
				perr = err
				break
			}
			fields := strings.Split(rest, ",")
			s := prod.begin()
			vals, err := ingress.ParseRow(src.Schema, fields)
			prod.end(spParseRow, tuples, s, 1)
			if err != nil {
				perr = err
				break
			}
			s = prod.begin()
			_, err = x.Push(stream, vals)
			prod.end(spPush, tuples, s, 1)
			if err != nil {
				perr = err
			}
			tuples++
		}
	}
	if perr == nil {
		perr = x.Barrier()
	}
	close(done)
	<-consumed
	return tuples, perr
}

// consume drains the subscriptions until done is closed and a pass finds
// them all empty. It encodes each SELECT row the way the FrontEnd pump
// does, timing NextBatch (or TryNextFrame) and AppendText.
func consume(subs []*egress.Subscription, fsubs []*fanout.Subscriber, done <-chan struct{}, l *spanLog) int64 {
	dst := make([]*tuple.Tuple, 256)
	var buf []byte
	var rows int64
	finishing := false
	for {
		moved := false
		for _, sub := range subs {
			s := l.begin()
			n := sub.NextBatch(dst)
			if n == 0 {
				continue
			}
			l.end(spNext, -1, s, int64(n))
			moved = true
			for i := 0; i < n; i++ {
				row := dst[i]
				s := l.begin()
				buf = row.AppendText(buf[:0])
				l.end(spAppendText, row.Values[0].I, s, 1)
				tuple.Recycle(row)
				dst[i] = nil
			}
			rows += int64(n)
		}
		for _, sub := range fsubs {
			s := l.begin()
			f, ok := sub.TryNextFrame()
			if !ok {
				continue
			}
			l.end(spNext, -1, s, int64(f.Rows()))
			moved = true
			rows += int64(f.Rows())
			f.Release()
		}
		if moved {
			continue
		}
		if finishing {
			for _, sub := range fsubs {
				sub.Close()
			}
			return rows
		}
		select {
		case <-done:
			finishing = true // one more pass after the barrier
		case <-time.After(50 * time.Microsecond):
		}
	}
}

// traceEngine replays a workload's drain corpus twice (spans off, then
// on) and adds the span metrics to o.layer.
func traceEngine(cfg config, o *outcome, workload string, r *engineReplay) error {
	var prod, cons *spanLog
	// A first, unmeasured pass warms the process (heap, pools, page
	// faults) so the spans-off and spans-on passes start alike.
	if _, err := r.run(newSpanLog(false, time.Now()), newSpanLog(false, time.Now())); err != nil {
		return fmt.Errorf("warm-up replay: %w", err)
	}
	off, err := measured(func() (int64, error) {
		return r.run(newSpanLog(false, time.Now()), newSpanLog(false, time.Now()))
	})
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	on, err := measured(func() (int64, error) {
		t0 := time.Now()
		prod, cons = newSpanLog(true, t0), newSpanLog(true, t0)
		return r.run(prod, cons)
	})
	if err != nil {
		return fmt.Errorf("traced replay: %w", err)
	}
	addPassLayers(o.layer, off, on)
	o.layer["ingress.parse_ns_per_row"] = nsPer(spParseRow, prod)
	o.layer["executor.push_ns_per_tuple"] = nsPer(spPush, prod)
	o.layer["sql.parse_us_per_query"] = nsPer(spSQLParse, prod) / 1000
	o.layer["server.register_us_per_query"] = nsPer(spSubmit, prod) / 1000
	o.layer["egress.next_ns_per_row"] = nsPer(spNext, cons)
	o.layer["egress.encode_ns_per_row"] = nsPer(spAppendText, cons)
	path, err := writeSpans(cfg, workload, prod, cons)
	if err != nil {
		return err
	}
	o.notes = append(o.notes, "spans written to "+path)
	return nil
}

// projectCost times operator.Project.Apply, the per-row projection the
// engine runs for every result, over the workload's own queries and
// input tuples.
func projectCost(ddl, queries []string, lines []corpus, l *spanLog) error {
	cat := catalog.New()
	for _, d := range ddl {
		st, err := sql.Parse(d)
		if err != nil {
			return err
		}
		cs := st.(*sql.CreateStream)
		if _, err := cat.CreateStream(cs.Name, cs.Cols, false); err != nil {
			return err
		}
	}
	pl := plan.New(cat)
	var projs []*operator.Project
	for i, q := range queries {
		st, err := sql.Parse(q)
		if err != nil {
			return err
		}
		p, err := pl.PlanSelect(st.(*sql.Select), i)
		if err != nil {
			return err
		}
		projs = append(projs, operator.NewProject("project", p.CQ.Select, p.CQ.SelectNames))
	}
	for _, c := range lines {
		for i := 0; i < c.n(); i++ {
			line := strings.TrimSpace(string(c.span(i, i+1)))
			stream, rest, _ := strings.Cut(line, ",")
			src, err := cat.Lookup(stream)
			if err != nil {
				return err
			}
			vals, err := ingress.ParseRow(src.Schema, strings.Split(rest, ","))
			if err != nil {
				return err
			}
			t := tuple.New(src.Schema, vals...)
			for _, p := range projs {
				s := l.begin()
				_, err := p.Apply(t)
				l.end(spProject, vals[0].I, s, 1)
				if err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// traceQuotes is the traced replay of shared_filter (sels set) or
// result_stream (sels nil).
func traceQuotes(cfg config, o *outcome, workload string, in *quoteInputs, sels []selection) error {
	r := &engineReplay{}
	stream := "ticks"
	if sels != nil {
		stream = "quotes"
		for _, s := range sels {
			r.queries = append(r.queries, s.sql(stream))
		}
	} else {
		r.fanout = true
		for _, p := range projections {
			r.queries = append(r.queries, fmt.Sprintf("SELECT %s FROM ticks", p.cols))
		}
	}
	r.ddl = []string{fmt.Sprintf("CREATE STREAM %s (id int, sym string, price float, vol int) %s", stream, streamWith)}
	for _, inst := range in.inst {
		r.lines = append(r.lines, inst.rounds...)
	}
	if err := traceEngine(cfg, o, workload, r); err != nil {
		return err
	}
	if sels == nil {
		l := newSpanLog(true, time.Now())
		if err := projectCost(r.ddl, r.queries, r.lines, l); err != nil {
			return err
		}
		o.layer["operator.project_ns_per_row"] = nsPer(spProject, l)
	}
	return nil
}

// traceJoin is the traced replay of window_join.
func traceJoin(cfg config, o *outcome, in *joinInputs, bands []band) error {
	r := &engineReplay{ddl: joinDDL()}
	for _, b := range bands {
		r.queries = append(r.queries, joinSQL(b))
	}
	for _, inst := range in.inst {
		r.lines = append(r.lines, inst.rounds...)
	}
	return traceEngine(cfg, o, "window_join", r)
}

// ------------------------------------------------------- cluster replay

// clusterBarrierEvery is how many routed entries the replay sends
// between barriers; clusterLagEvery how often it samples routed−acked.
const (
	clusterBarrierEvery = 20000
	clusterLagEvery     = 2000
)

// clusterReplay routes lines through an in-process coordinator and two
// in-process workers (process pairs on) and folds them into the
// reference with flux.BucketState.Fold, timing Route, Barrier, Collect
// and Fold.
func clusterReplay(lines []foldLine, l *spanLog) (lagMean, skew float64, err error) {
	var workers []*cluster.Worker
	var addrs []string
	defer func() {
		for _, w := range workers {
			_ = w.Close() // teardown of a finished replay
		}
	}()
	for i := 0; i < 2; i++ {
		w := cluster.NewWorker()
		a, err := w.Listen("127.0.0.1:0")
		if err != nil {
			return 0, 0, err
		}
		workers = append(workers, w)
		addrs = append(addrs, a)
	}
	hb, _ := time.ParseDuration(clusterHeartbeat)
	c, err := cluster.NewCoordinator(cluster.Config{Workers: addrs, Heartbeat: hb, Logf: func(string, ...any) {}})
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	if err := c.Start(); err != nil {
		return 0, 0, err
	}
	ref := flux.BucketState{}
	var lagSum, lagN float64
	for i, ln := range lines {
		s := l.begin()
		err := c.Route(ln.key, ln.val)
		l.end(spRoute, int64(i), s, 1)
		if err != nil {
			return 0, 0, err
		}
		s = l.begin()
		ref.Fold(ln.key, ln.val)
		l.end(spFold, int64(i), s, 1)
		if i%clusterLagEvery == clusterLagEvery-1 {
			st := c.Stats()
			lagSum += float64(st.Routed - st.Acked)
			lagN++
		}
		if i%clusterBarrierEvery == clusterBarrierEvery-1 {
			s = l.begin()
			err := c.Barrier(roundTimeout)
			l.end(spBarrier, -1, s, 1)
			if err != nil {
				return 0, 0, err
			}
		}
	}
	s := l.begin()
	got, err := c.Collect(roundTimeout)
	l.end(spCollect, -1, s, 1)
	if err != nil {
		return 0, 0, err
	}
	for k, want := range ref {
		if g, ok := got[k]; !ok || g.Count != want.Count || g.Sum != want.Sum {
			return 0, 0, fmt.Errorf("replay COLLECT disagrees with the fold on key %s", k)
		}
	}
	if len(got) != len(ref) {
		return 0, 0, fmt.Errorf("replay COLLECT has %d keys, the fold %d", len(got), len(ref))
	}
	var mx, sum float64
	nodes := c.NodeStates()
	for _, n := range nodes {
		p := float64(n.Processed)
		mx = max(mx, p)
		sum += p
	}
	return ratio(lagSum, lagN), ratio(mx, sum/float64(len(nodes))), nil
}

// traceCluster adds the cluster per-layer metrics: counters from the
// wire run's STATS lines, spans from two in-process replays of the
// drain corpus.
func traceCluster(cfg config, o *outcome, insts []foldInstance, kvs []map[string]int64) error {
	o.layer = zeroLayers()
	var retrans, routed, bytesIn float64
	for _, kv := range kvs {
		retrans += float64(kv["retransmits"])
		routed += float64(kv["routed"])
		bytesIn += float64(kv["bytes_in"])
	}
	o.layer["cluster.retransmits_per_ktuple"] = ratio(retrans, routed/1000)
	o.layer["server.bytes_in_per_tuple"] = ratio(bytesIn, routed)

	var lines []foldLine
	for _, fi := range insts {
		for _, r := range fi.rounds {
			lines = append(lines, r...)
		}
	}
	if _, _, err := clusterReplay(lines, newSpanLog(false, time.Now())); err != nil {
		return fmt.Errorf("warm-up replay: %w", err)
	}
	n := int64(len(lines))
	off, err := measured(func() (int64, error) {
		_, _, err := clusterReplay(lines, newSpanLog(false, time.Now()))
		return n, err
	})
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	l := newSpanLog(true, time.Now())
	var lag, skew float64
	on, err := measured(func() (int64, error) {
		var err error
		lag, skew, err = clusterReplay(lines, l)
		return n, err
	})
	if err != nil {
		return fmt.Errorf("traced replay: %w", err)
	}
	addPassLayers(o.layer, off, on)
	o.layer["cluster.route_ns_per_tuple"] = nsPer(spRoute, l)
	o.layer["flux.fold_ns_per_tuple"] = nsPer(spFold, l)
	o.layer["cluster.barrier_ms"] = nsPer(spBarrier, l) / 1e6
	o.layer["cluster.ack_lag_tuples"] = lag
	o.layer["cluster.node_skew"] = skew
	path, err := writeSpans(cfg, "cluster_fold", l)
	if err != nil {
		return err
	}
	o.notes = append(o.notes, "spans written to "+path, "collect span "+strconv.FormatFloat(nsPer(spCollect, l)/1e6, 'f', 3, 64)+" ms")
	return nil
}
