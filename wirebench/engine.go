package main

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"
)

// A run is several independent instances of the system (see shape),
// one after another: each is launched and set up (its set-up time is
// one sample of setup_s), runs its share of the latency phase and
// roundsN drain rounds, and is stopped. Spreading the work over fresh
// processes makes a run's medians cover process-to-process variation
// (thread placement, socket batching, GC timing) instead of one draw
// of it.
const roundsN = 3

// roundTimeout bounds the wait for one round's last result; a lossless
// system at these sizes finishes in well under a second.
const roundTimeout = 30 * time.Second

// engineSys is one standalone tcqd driven through its FrontEnd and
// Wrapper ports.
type engineSys struct {
	p     *proc
	front *frontConn
	wrap  net.Conn
	sent  countingWriter // bytes written to the Wrapper port
}

// launchEngine starts tcqd and registers the workload's streams and
// queries, recording the set-up time from launch to the last query's
// acknowledgement.
func launchEngine(cfg config, o *outcome, onRow rowFunc, register func(*frontConn) error) (*engineSys, error) {
	t0 := time.Now()
	p, addrs, err := startProc(cfg.tcqd, -1, []string{"-front", "127.0.0.1:0", "-wrapper", "127.0.0.1:0"}, "frontend on", "wrapper on")
	if err != nil {
		return nil, err
	}
	front, err := dialFront(addrs["frontend on"], onRow)
	if err != nil {
		p.stop()
		return nil, err
	}
	if err := register(front); err != nil {
		front.close()
		p.stop()
		return nil, err
	}
	o.setup = append(o.setup, since(t0))
	wrap, err := net.Dial("tcp", addrs["wrapper on"])
	if err != nil {
		front.close()
		p.stop()
		return nil, fmt.Errorf("dial wrapper: %w", err)
	}
	s := &engineSys{p: p, front: front, wrap: wrap}
	s.sent.w = wrap
	return s, nil
}

// extraSetups launches and registers the system until the run has
// sh.setups set-up samples, counting the instances still to come; each
// extra system is stopped at once. Cheap set-ups are timed more often
// so their median is steady.
func extraSetups(cfg config, o *outcome, sh shape, register func(*frontConn) error) error {
	for i := sh.instances; i < sh.setups; i++ {
		sys, err := launchEngine(cfg, o, func(int, []byte, time.Time) {}, register)
		if err != nil {
			return err
		}
		sys.stop()
	}
	return nil
}

// stop closes the sockets, waits for the reader goroutine, and stops
// the process.
func (s *engineSys) stop() {
	s.wrap.Close()
	s.front.close()
	s.p.stop()
}

// addStats sums two counter snapshots.
func addStats(a, b map[string]float64) map[string]float64 {
	if a == nil {
		a = map[string]float64{}
	}
	for k, v := range b {
		a[k] += v
	}
	return a
}

// finish reads the system's shed and drop counters, which count as
// failed operations, plus its peak memory. It returns every tcq_
// counter for the traced run's per-layer numbers.
func (s *engineSys) finish(o *outcome) (map[string]float64, error) {
	st, err := s.front.stats("tcq_")
	if err != nil {
		return nil, err
	}
	for _, name := range []string{"tcq_stream_shed_total", "tcq_stream_block_timeouts_total", "tcq_result_dropped_total", "tcq_subscriber_shed_total"} {
		if v := sumStats(st, name); v > 0 {
			o.fail(int64(v), "%s = %v", name, v)
		}
	}
	rss, err := s.p.hwmMB()
	if err != nil {
		return nil, err
	}
	o.rss = append(o.rss, rss)
	return st, nil
}

// progress signals when a count kept by the reader goroutine reaches
// the target the phase set, and when the row that reached it was read.
type progress struct {
	target atomic.Int64
	got    atomic.Int64
	lastAt atomic.Int64 // unix ns of the row that reached the target
	ch     chan struct{}
}

func newProgress() *progress { return &progress{ch: make(chan struct{}, 1)} }

// hit counts one event on the reader goroutine.
func (p *progress) hit(at time.Time) {
	if p.got.Add(1) == p.target.Load() {
		p.lastAt.Store(at.UnixNano())
		select {
		case p.ch <- struct{}{}:
		default:
		}
	}
}

// await sets the target, runs begin (which sends the input the target
// counts), and waits for the target. It reports when the event that
// reached it was read, or false (with the current time) on timeout.
func (p *progress) await(target int64, begin func() error) (time.Time, bool, error) {
	select { // a stale signal from an earlier target
	case <-p.ch:
	default:
	}
	p.target.Store(target)
	before := p.got.Load()
	if err := begin(); err != nil {
		return time.Time{}, false, err
	}
	if target <= before { // nothing to wait for
		return time.Now(), true, nil
	}
	select {
	case <-p.ch:
		return time.Unix(0, p.lastAt.Load()), true, nil
	case <-time.After(roundTimeout):
		return time.Now(), false, nil
	}
}

// corpus is pre-rendered input lines: line i is buf[off[i]:off[i+1]].
type corpus struct {
	buf []byte
	off []int
}

func (c *corpus) add(line []byte) {
	if len(c.off) == 0 {
		c.off = append(c.off, 0)
	}
	c.buf = append(c.buf, line...)
	c.off = append(c.off, len(c.buf))
}

func (c *corpus) n() int                 { return max(len(c.off)-1, 0) }
func (c *corpus) span(lo, hi int) []byte { return c.buf[c.off[lo]:c.off[hi]] }

// drainRounds pushes each round's lines as fast as the socket takes
// them and waits for the round's completion count, then records the
// instance's drain throughput and system CPU over all its rounds.
func drainRounds(o *outcome, g group, w *countingWriter, rounds []corpus, prog *progress, targets []int64) error {
	cpu0, err := g.cpuSeconds()
	if err != nil {
		return err
	}
	var n int64
	var el time.Duration
	for r, rc := range rounds {
		var t0 time.Time
		end, ok, err := prog.await(targets[r], func() error {
			t0 = time.Now()
			_, err := w.Write(rc.buf)
			return err
		})
		if err != nil {
			return fmt.Errorf("drain round %d: %w", r, err)
		}
		if !ok {
			o.notes = append(o.notes, fmt.Sprintf("drain round %d: results incomplete after %v", r, roundTimeout))
		}
		n += int64(rc.n())
		el += end.Sub(t0)
	}
	cpu1, err := g.cpuSeconds()
	if err != nil {
		return err
	}
	o.drained(n, el, cpu1-cpu0)
	return nil
}

// latencyPhase sends lines open-loop on sched (start is set here and
// published through start for the reader), then waits for target.
func latencyPhase(o *outcome, w *countingWriter, lines corpus, rate float64, start *atomic.Int64, prog *progress, target int64) error {
	_, ok, err := prog.await(target, func() error {
		s := schedule{start: time.Now().Add(5 * time.Millisecond), rate: rate, n: lines.n()}
		start.Store(s.start.UnixNano())
		lag, err := s.run(func(lo, hi int) error {
			_, err := w.Write(lines.span(lo, hi))
			return err
		})
		o.lags = append(o.lags, lag...)
		return err
	})
	if err != nil {
		return fmt.Errorf("latency phase: %w", err)
	}
	if !ok {
		o.notes = append(o.notes, fmt.Sprintf("latency phase: results incomplete after %v", roundTimeout))
	}
	return nil
}

// dueAt is the due time of latency-phase event i given the published
// start and rate.
func dueAt(start *atomic.Int64, rate float64, i int) time.Time {
	return schedule{start: time.Unix(0, start.Load()), rate: rate}.due(i)
}
