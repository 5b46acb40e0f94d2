package main

import (
	"bufio"
	"fmt"
	"math/rand/v2"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// cluster_fold: a coordinator and two workers as separate tcqd
// processes with process pairs on (two static workers), fed skewed
// key,value lines on the coordinator's ingest port.
const (
	foldKeys = 2000
	// clusterHeartbeat paces failure detection and the workers' ack
	// flushes, which a BARRIER waits for. With the three processes on
	// one CPU, 20ms (a 25ms failure deadline) let the coordinator
	// declare a live worker dead in the middle of a drain; at 100ms
	// each barrier waited so long that barriers at 250/s queued to half
	// a second.
	clusterHeartbeat = "50ms"
)

// foldShape runs ten short-lived clusters: set-up is cheap, and drain
// CPU per line still differs by up to a third between sets of
// processes. Each latency-phase event is one line followed by a
// BARRIER, so every barrier waits for an unacknowledged line; barriers
// that found nothing pending returned at once, and how many did moved
// the median from one set of processes to the next.
var foldShape = shape{instances: 10, setups: 25, latencyShare: 0.5, drainPerSec: 200000, rate: 100}

// foldLine is one ingest observation; values are multiples of 1/8 so
// every sum is exact in float64.
type foldLine struct {
	key string
	val float64
}

func genFold(rng *rand.Rand, n int, z *rand.Zipf) []foldLine {
	out := make([]foldLine, n)
	for i := range out {
		out[i] = foldLine{key: fmt.Sprintf("k%04d", z.Uint64()), val: float64(rng.IntN(8000)) / 8}
	}
	return out
}

func (l foldLine) append(b []byte) []byte {
	b = append(b, l.key...)
	b = append(b, ',')
	b = strconv.AppendFloat(b, l.val, 'f', -1, 64)
	return append(b, '\n')
}

// ingestConn is the generator's one ingest connection. Its reader
// goroutine matches OK replies to outstanding barriers in order and
// gathers COLLECT and STATS replies.
type ingestConn struct {
	c    net.Conn
	sent countingWriter

	mu       sync.Mutex
	barriers []time.Time // due times of outstanding BARRIERs, in order
	okAt     []time.Time // receipt times of OKs not claimed by a due time
	lat      latRec
	collect  map[string]foldAgg
	err      string
	replies  chan ingestReply // END (with the collected map) and STATS lines
	done     chan struct{}
}

type ingestReply struct {
	line    string
	at      time.Time
	collect map[string]foldAgg
}

func dialIngest(addr string) (*ingestConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial ingest: %w", err)
	}
	ic := &ingestConn{c: c, collect: map[string]foldAgg{}, replies: make(chan ingestReply, 16), done: make(chan struct{})}
	ic.sent.w = c
	go ic.read()
	return ic, nil
}

func (ic *ingestConn) read() {
	defer close(ic.done)
	defer close(ic.replies)
	sc := bufio.NewScanner(ic.c)
	for sc.Scan() {
		at := time.Now()
		line := sc.Text()
		switch {
		case line == "OK":
			ic.mu.Lock()
			if len(ic.barriers) > 0 {
				ic.lat.add(ic.barriers[0], at)
				ic.barriers = ic.barriers[1:]
			} else {
				ic.okAt = append(ic.okAt, at)
			}
			ic.mu.Unlock()
		case line == "END":
			ic.replies <- ingestReply{line: line, at: at, collect: ic.collect}
			ic.collect = map[string]foldAgg{}
		case strings.HasPrefix(line, "routed="):
			ic.replies <- ingestReply{line: line, at: at}
		case strings.HasPrefix(line, "ERR"):
			ic.mu.Lock()
			if ic.err == "" {
				ic.err = line
			}
			ic.mu.Unlock()
			ic.replies <- ingestReply{line: line, at: at}
		default:
			f := strings.Fields(line)
			var a foldAgg
			var err1, err2 error
			if len(f) == 3 {
				a.count, err1 = strconv.ParseInt(f[1], 10, 64)
				a.sum, err2 = strconv.ParseFloat(f[2], 64)
			}
			if len(f) != 3 || err1 != nil || err2 != nil {
				ic.mu.Lock()
				if ic.err == "" {
					ic.err = "unexpected ingest reply " + strconv.Quote(line)
				}
				ic.mu.Unlock()
				continue
			}
			ic.collect[f[0]] = a
		}
	}
}

// awaitReply waits for the next END, STATS or ERR reply.
func (ic *ingestConn) awaitReply() (ingestReply, error) {
	select {
	case r, ok := <-ic.replies:
		if !ok {
			return r, fmt.Errorf("ingest connection closed")
		}
		if strings.HasPrefix(r.line, "ERR") {
			return r, fmt.Errorf("coordinator: %s", r.line)
		}
		return r, nil
	case <-time.After(roundTimeout):
		return ingestReply{}, fmt.Errorf("no ingest reply within %v", roundTimeout)
	}
}

// barrierSync sends one BARRIER and waits for its OK.
func (ic *ingestConn) barrierSync() error {
	if _, err := ic.c.Write([]byte("BARRIER\n")); err != nil {
		return err
	}
	deadline := time.Now().Add(roundTimeout)
	for time.Now().Before(deadline) {
		ic.mu.Lock()
		got, e := len(ic.okAt), ic.err
		if got > 0 {
			ic.okAt = ic.okAt[1:]
		}
		ic.mu.Unlock()
		if e != "" {
			return fmt.Errorf("coordinator: %s", e)
		}
		if got > 0 {
			return nil
		}
		time.Sleep(200 * time.Microsecond)
	}
	return fmt.Errorf("no OK to BARRIER within %v", roundTimeout)
}

func (ic *ingestConn) close() {
	ic.c.Close()
	<-ic.done
}

// clusterSys is the coordinator plus two workers.
type clusterSys struct {
	g      group
	ingest *ingestConn
}

// launchCluster starts the workers and the coordinator; set-up ends
// when the first BARRIER returns OK. All three share CPU cpu (if >= 0),
// which the generator leaves to them: the coordinator writes one frame
// per entry, and when a worker sits on another CPU it wakes for nearly
// every frame, so unconfined drain CPU per line ranged from 6 to 25 µs
// with where the scheduler put each process, instance to instance.
func launchCluster(cfg config, o *outcome, cpu int) (*clusterSys, error) {
	t0 := time.Now()
	var g group
	fail := func(err error) (*clusterSys, error) {
		g.stop()
		return nil, err
	}
	var addrs []string
	for w := 0; w < 2; w++ {
		p, a, err := startProc(cfg.tcqd, cpu, []string{"-role=worker", "-exchange", "127.0.0.1:0"}, "exchange on")
		if err != nil {
			return fail(err)
		}
		g = append(g, p)
		addrs = append(addrs, a["exchange on"])
	}
	p, a, err := startProc(cfg.tcqd, cpu, []string{"-role=coordinator", "-workers", strings.Join(addrs, ","),
		"-ingest", "127.0.0.1:0", "-heartbeat", clusterHeartbeat}, "ingest on")
	if err != nil {
		return fail(err)
	}
	g = append(g, p)
	ic, err := dialIngest(a["ingest on"])
	if err != nil {
		return fail(err)
	}
	if err := ic.barrierSync(); err != nil {
		ic.close()
		return fail(err)
	}
	o.setup = append(o.setup, since(t0))
	return &clusterSys{g: g, ingest: ic}, nil
}

func (s *clusterSys) stop() {
	s.ingest.close()
	s.g.stop()
}

// foldInstance is one instance's share of the cluster_fold input.
type foldInstance struct {
	rounds [][]foldLine
	slots  corpus          // latency segment: each slot a line, then BARRIER
	at     []time.Duration // due time of each slot, from the segment's start
	lines  []foldLine      // the latency segment's lines
}

func genFoldInputs(rng *rand.Rand, seconds int) []foldInstance {
	z := rand.NewZipf(rng, 1.1, 1, foldKeys-1)
	perRound, slots := foldShape.perRound(seconds), foldShape.latencyN(seconds)
	out := make([]foldInstance, foldShape.instances)
	for k := range out {
		fi := &out[k]
		for r := 0; r < roundsN; r++ {
			fi.rounds = append(fi.rounds, genFold(rng, perRound, z))
		}
		// Slots arrive as a Poisson process, so barriers meet the
		// cluster's ack and probe tickers at every phase rather than at
		// a few fixed offsets from them.
		var t time.Duration
		for s := 0; s < slots; s++ {
			t += time.Duration(rng.ExpFloat64() / foldShape.rate * float64(time.Second))
			fi.at = append(fi.at, t)
			l := genFold(rng, 1, z)[0]
			fi.lines = append(fi.lines, l)
			fi.slots.add(append(l.append(nil), "BARRIER\n"...))
		}
	}
	return out
}

func runClusterFold(cfg config) (*outcome, error) {
	// The cluster's CPU: the last this process may use, unless it may
	// use only one.
	cpu := lastCPU()
	if cpu >= 0 {
		if err := avoidCPU(cpu); err != nil {
			return nil, fmt.Errorf("leave CPU %d to the cluster: %w", cpu, err)
		}
	}
	rng := rand.New(rand.NewPCG(cfg.seed, 0xf0))
	insts := genFoldInputs(rng, cfg.seconds)
	o := &outcome{correct: true}
	for i := foldShape.instances; i < foldShape.setups; i++ {
		sys, err := launchCluster(cfg, o, cpu)
		if err != nil {
			return nil, err
		}
		sys.stop()
	}
	var kvs []map[string]int64
	for k := range insts {
		kv, err := foldInstanceRun(cfg, o, &insts[k], cpu)
		if err != nil {
			return nil, fmt.Errorf("instance %d: %w", k, err)
		}
		kvs = append(kvs, kv)
	}
	if cfg.trace {
		if err := traceCluster(cfg, o, insts, kvs); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// foldInstanceRun drives one fresh cluster through its drain rounds and
// latency segment, checks COLLECT against the reference fold after each
// round and at the end, and returns the final STATS counters.
func foldInstanceRun(cfg config, o *outcome, fi *foldInstance, cpu int) (map[string]int64, error) {
	sys, err := launchCluster(cfg, o, cpu)
	if err != nil {
		return nil, err
	}
	defer sys.stop()
	ic := sys.ingest
	ref := foldRef{}
	check := func(phase string, got map[string]foldAgg) {
		if bad, ex := ref.diff(got); bad > 0 {
			o.wrong("%s: COLLECT disagrees with the reference fold on %d keys; %s", phase, bad, ex)
		}
	}

	// Latency, first on the fresh instance: line-and-BARRIER slots
	// open-loop at foldShape.rate; a barrier's latency runs from its
	// slot's due time to its OK.
	for _, l := range fi.lines {
		ref.add(l.key, l.val)
	}
	routed := len(fi.lines)
	sched := schedule{start: time.Now().Add(5 * time.Millisecond), rate: foldShape.rate, n: fi.slots.n(), at: fi.at}
	lags, err := sched.run(func(lo, hi int) error {
		ic.mu.Lock()
		for s := lo; s < hi; s++ {
			ic.barriers = append(ic.barriers, sched.due(s))
		}
		ic.mu.Unlock()
		_, err := ic.sent.Write(fi.slots.span(lo, hi))
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("latency phase: %w", err)
	}
	o.lags = append(o.lags, lags...)

	// Drain: each round's lines as fast as the socket takes them, then
	// COLLECT; the round ends when END arrives.
	cpu0, err := sys.g.cpuSeconds()
	if err != nil {
		return nil, err
	}
	var drainN int64
	var drainEl time.Duration
	for r, lines := range fi.rounds {
		var buf []byte
		for _, l := range lines {
			buf = l.append(buf)
			ref.add(l.key, l.val)
		}
		buf = append(buf, "COLLECT\n"...)
		t0 := time.Now()
		if _, err := ic.sent.Write(buf); err != nil {
			return nil, err
		}
		rep, err := ic.awaitReply()
		if err != nil {
			return nil, fmt.Errorf("drain round %d: %w", r, err)
		}
		drainN += int64(len(lines))
		drainEl += rep.at.Sub(t0)
		routed += len(lines)
		check(fmt.Sprintf("drain round %d", r), rep.collect)
	}
	cpu1, err := sys.g.cpuSeconds()
	if err != nil {
		return nil, err
	}
	o.drained(drainN, drainEl, cpu1-cpu0)
	if _, err := ic.sent.Write([]byte("STATS\n")); err != nil {
		return nil, err
	}
	stats, err := ic.awaitReply()
	if err != nil {
		return nil, fmt.Errorf("STATS: %w", err)
	}
	kv := parseStatsLine(stats.line)
	if kv["lost"] > 0 {
		o.fail(kv["lost"], "STATS lost=%d", kv["lost"])
	}
	if kv["routed"] != kv["acked"] || kv["routed"] != int64(routed) {
		o.wrong("STATS routed=%d acked=%d after COLLECT; sent %d lines", kv["routed"], kv["acked"], routed)
	}
	rss, err := sys.g.hwmMB()
	if err != nil {
		return nil, err
	}
	o.rss = append(o.rss, rss)
	ic.close() // the reader has stopped: its samples are ours
	o.lats = append(o.lats, ic.lat)
	if ic.err != "" {
		o.wrong("ingest: %s", ic.err)
	}
	o.attempted += int64(routed)
	kv["bytes_in"] = ic.sent.n
	return kv, nil
}

// parseStatsLine reads the coordinator's "k=v k=v ..." STATS line.
func parseStatsLine(line string) map[string]int64 {
	out := map[string]int64{}
	for _, f := range strings.Fields(line) {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			continue
		}
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			out[k] = n
		}
	}
	return out
}
