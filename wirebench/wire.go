package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// rowFunc receives one "row <cursor> <payload>" line on the reader
// goroutine, with the time it was read. payload is only valid during
// the call.
type rowFunc func(cursor int, payload []byte, at time.Time)

// frontConn is the generator's FrontEnd connection. One goroutine reads
// it: result rows go to onRow, every other reply to ctl in order.
type frontConn struct {
	c     net.Conn
	w     *bufio.Writer
	ctl   chan string
	onRow rowFunc
	// rowBytes counts the bytes of result rows read, newlines included.
	rowBytes atomic.Int64
	done     chan struct{}
}

func dialFront(addr string, onRow rowFunc) (*frontConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial frontend: %w", err)
	}
	// ctl is sized so replies to a pipelined registration of every
	// query never wait on the reader of ctl for long; the registration
	// loop consumes them as they arrive.
	f := &frontConn{c: c, w: bufio.NewWriterSize(c, 64<<10), ctl: make(chan string, 1024), onRow: onRow, done: make(chan struct{})}
	go f.read()
	return f, nil
}

func (f *frontConn) read() {
	defer close(f.done)
	defer close(f.ctl)
	br := bufio.NewReaderSize(f.c, 256<<10)
	for {
		line, err := br.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			// Longer than the buffer: no reply of this protocol is; keep
			// the head so the caller sees something went wrong.
			f.ctl <- "error oversized reply"
			for errors.Is(err, bufio.ErrBufferFull) {
				_, err = br.ReadSlice('\n')
			}
			continue
		}
		if err != nil {
			return
		}
		at := time.Now()
		n := len(line)
		line = line[:n-1]
		if rest, ok := bytes.CutPrefix(line, []byte("row ")); ok {
			sp := bytes.IndexByte(rest, ' ')
			if sp > 0 {
				id, err := strconv.Atoi(string(rest[:sp]))
				if err == nil && id >= 0 {
					f.rowBytes.Add(int64(n))
					f.onRow(id, rest[sp+1:], at)
					continue
				}
			}
		}
		f.ctl <- string(line)
	}
}

// send writes statements (each gets a trailing ';') and flushes.
func (f *frontConn) send(stmts ...string) error {
	for _, s := range stmts {
		f.w.WriteString(s)
		f.w.WriteString(";\n")
	}
	return f.w.Flush()
}

// reply waits for the next non-row reply; an "error" reply is an error.
func (f *frontConn) reply(timeout time.Duration) (string, error) {
	select {
	case line, ok := <-f.ctl:
		if !ok {
			return "", fmt.Errorf("frontend connection closed")
		}
		if strings.HasPrefix(line, "error") {
			return "", fmt.Errorf("tcqd: %s", line)
		}
		return line, nil
	case <-time.After(timeout):
		return "", fmt.Errorf("no reply from tcqd within %v", timeout)
	}
}

// cursor waits for a "cursor <id> push" reply and returns the id.
func (f *frontConn) cursor() (int, error) {
	line, err := f.reply(30 * time.Second)
	if err != nil {
		return 0, err
	}
	var id int
	if _, err := fmt.Sscanf(line, "cursor %d push", &id); err != nil {
		return 0, fmt.Errorf("want cursor reply, got %q", line)
	}
	return id, nil
}

// stats runs SHOW STATS LIKE prefix and returns each sample by its
// full Prometheus name (labels included).
func (f *frontConn) stats(prefix string) (map[string]float64, error) {
	if err := f.send(fmt.Sprintf("SHOW STATS LIKE '%s'", prefix)); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for {
		line, err := f.reply(30 * time.Second)
		if err != nil {
			return nil, err
		}
		if strings.HasPrefix(line, "ok stats") {
			return out, nil
		}
		rest, ok := strings.CutPrefix(line, "row -1 ")
		if !ok {
			return nil, fmt.Errorf("unexpected reply to SHOW STATS: %q", line)
		}
		sp := strings.LastIndexByte(rest, ' ')
		v, err := strconv.ParseFloat(rest[sp+1:], 64)
		if sp < 0 || err != nil {
			return nil, fmt.Errorf("bad stats line %q", line)
		}
		out[rest[:sp]] = v
	}
}

func (f *frontConn) close() {
	f.c.Close()
	<-f.done
}

// sumStats adds every sample whose name (before labels) is name and
// whose labels contain each of the given substrings.
func sumStats(st map[string]float64, name string, labelHas ...string) float64 {
	var s float64
	for k, v := range st {
		base, labels, _ := strings.Cut(k, "{")
		if base != name {
			continue
		}
		match := true
		for _, h := range labelHas {
			if !strings.Contains(labels, h) {
				match = false
			}
		}
		if match {
			s += v
		}
	}
	return s
}

// maxStats is the largest sample called name.
func maxStats(st map[string]float64, name string) float64 {
	m := 0.0
	for k, v := range st {
		if base, _, _ := strings.Cut(k, "{"); base == name {
			m = max(m, v)
		}
	}
	return m
}

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
