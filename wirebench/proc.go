package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// proc is one tcqd process of the system under test.
type proc struct {
	cmd   *exec.Cmd
	lines chan string // stdout lines, closed at EOF
}

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// it is 100 on every Linux platform Go supports.
const clockTicks = 100

// startProc launches tcqd with args, on CPU cpu alone if cpu >= 0, and
// waits until it has printed a line for each of the wanted markers
// ("frontend on", "ingest on", ...), returning the address that follows
// each marker.
func startProc(bin string, cpu int, args []string, markers ...string) (*proc, map[string]string, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	// If the benchmark itself is killed, take the system down with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, nil, err
	}
	if err := startOn(cmd, cpu); err != nil {
		return nil, nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p := &proc{cmd: cmd, lines: make(chan string, 16)}
	go func() {
		// Drains stdout until the process exits, so the child never
		// blocks on a full pipe; ends at EOF.
		defer close(p.lines)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			select {
			case p.lines <- sc.Text():
			default: // nobody is listening any more
			}
		}
	}()
	addrs := map[string]string{}
	deadline := time.After(30 * time.Second)
	for len(addrs) < len(markers) {
		select {
		case line, ok := <-p.lines:
			if !ok {
				p.stop()
				return nil, nil, fmt.Errorf("%s %v exited before it was ready", bin, args)
			}
			for _, m := range markers {
				if i := strings.Index(line, m+" "); i >= 0 {
					f := strings.Fields(line[i+len(m):])
					if len(f) > 0 {
						addrs[m] = strings.TrimSuffix(f[0], ",")
					}
				}
			}
		case <-deadline:
			p.stop()
			return nil, nil, fmt.Errorf("%s %v not ready after 30s", bin, args)
		}
	}
	return p, addrs, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// cpuMask is a sched_setaffinity(2) CPU set.
type cpuMask [16]uint64

// affinity gets or sets the CPU set of thread tid (0: the calling one).
func affinity(call uintptr, tid int, m *cpuMask) error {
	if _, _, e := syscall.RawSyscall(call, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m))); e != 0 {
		return fmt.Errorf("CPU affinity of thread %d: %w", tid, e)
	}
	return nil
}

// lastCPU is the highest-numbered CPU this process may run on, or -1 if
// it may run on only one.
func lastCPU() int {
	var m cpuMask
	if err := affinity(syscall.SYS_SCHED_GETAFFINITY, 0, &m); err != nil {
		return -1
	}
	last, n := -1, 0
	for c := 0; c < 64*len(m); c++ {
		if m[c/64]&(1<<(c%64)) != 0 {
			last, n = c, n+1
		}
	}
	if n < 2 {
		return -1
	}
	return last
}

// avoidCPU moves every thread of this process off CPU cpu, leaving it
// to the processes confined there; threads started later inherit the
// narrower set.
func avoidCPU(cpu int) error {
	var m cpuMask
	if err := affinity(syscall.SYS_SCHED_GETAFFINITY, 0, &m); err != nil {
		return err
	}
	m[cpu/64] &^= 1 << (cpu % 64)
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if err := affinity(syscall.SYS_SCHED_SETAFFINITY, tid, &m); err != nil && !errors.Is(err, syscall.ESRCH) {
			return err
		}
	}
	return nil
}

// startOn starts cmd, confined to CPU cpu when cpu >= 0. A child takes
// the CPU set of the thread that forks it, so the fork runs on a locked
// thread whose set is narrowed for the moment of the fork.
func startOn(cmd *exec.Cmd, cpu int) error {
	if cpu < 0 {
		return cmd.Start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var old, one cpuMask
	if err := affinity(syscall.SYS_SCHED_GETAFFINITY, 0, &old); err != nil {
		return err
	}
	one[cpu/64] = 1 << (cpu % 64)
	if err := affinity(syscall.SYS_SCHED_SETAFFINITY, 0, &one); err != nil {
		return err
	}
	err := cmd.Start()
	if e := affinity(syscall.SYS_SCHED_SETAFFINITY, 0, &old); e != nil && err == nil {
		err = e
	}
	return err
}

// stop kills the process and waits until it has ended.
func (p *proc) stop() {
	_ = p.cmd.Process.Kill() // already exited is fine
	_ = p.cmd.Wait()
	for range p.lines {
	}
}

// cpuSeconds is user plus system CPU the process has used so far.
func (p *proc) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.pid()))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat for %d", p.pid())
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat for %d", p.pid())
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat for %d", p.pid())
	}
	return float64(ut+st) / clockTicks, nil
}

// hwmMB is the process's peak resident set (VmHWM) in MB.
func (p *proc) hwmMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.pid()))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM for %d", p.pid())
}

// group is the set of processes making up one system under test.
type group []*proc

func (g group) cpuSeconds() (float64, error) {
	var sum float64
	for _, p := range g {
		s, err := p.cpuSeconds()
		if err != nil {
			return 0, err
		}
		sum += s
	}
	return sum, nil
}

func (g group) hwmMB() (float64, error) {
	var sum float64
	for _, p := range g {
		m, err := p.hwmMB()
		if err != nil {
			return 0, err
		}
		sum += m
	}
	return sum, nil
}

func (g group) stop() {
	for _, p := range g {
		p.stop()
	}
}
