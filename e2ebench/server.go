package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one iqsserve process started with shipped defaults.
type proc struct {
	cmd    *exec.Cmd
	addr   string
	stderr *tailBuffer
	done   chan struct{} // closed once the process has exited
	err    error         // the exit status, valid after done
}

// tailBuffer keeps the last few KiB the server wrote, for diagnostics.
type tailBuffer struct{ b []byte }

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.b = append(t.b, p...)
	if len(t.b) > 8192 {
		t.b = append(t.b[:0], t.b[len(t.b)-4096:]...)
	}
	return len(p), nil
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer starts bin with the server seed and returns once /healthz
// answers 200, with the time from process start to that answer.
func startServer(bin string, w workload, seed uint64) (*proc, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, fmt.Errorf("pick port: %w", err)
	}
	args := []string{"-addr", addr, "-n", strconv.Itoa(w.n), "-seed", strconv.FormatUint(seed, 10)}
	if w.mutable {
		args = append(args, "-mutable")
	}
	s := &proc{addr: addr, stderr: &tailBuffer{}, done: make(chan struct{})}
	s.cmd = exec.Command(bin, args...)
	s.cmd.Stdout = io.Discard
	s.cmd.Stderr = s.stderr
	// The server must not outlive a benchmark that is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.done)
	}()
	cli := &http.Client{Timeout: 2 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	for {
		resp, err := cli.Get("http://" + addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case <-s.done:
			return nil, 0, fmt.Errorf("server exited before answering /healthz (%v): %s", s.err, s.stderr.b)
		case <-time.After(500 * time.Microsecond):
		}
		if time.Since(start) > 120*time.Second {
			s.stop()
			return nil, 0, errors.New("server did not answer /healthz within 120s")
		}
	}
}

// stop drains the server with SIGTERM and waits for it to exit,
// killing it if the drain takes too long. Stopping twice is harmless.
func (s *proc) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// statusKB reads one "Key: value kB" line of a /proc/<pid>/status file.
func statusKB(path, key string) (float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseFloat(f[0], 64)
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", key)
}

// cpuSeconds returns the server's user+system CPU time.
func (s *proc) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) / clockTicks, nil
}

// clockTicks is USER_HZ, 100 on every Linux architecture Go supports.
const clockTicks = 100

// snapshot is the server's own view of its counters at one instant.
type snapshot struct {
	series  map[string]float64 // Prometheus series -> value
	mallocs float64
	served  float64
	cpu     float64
}

func (s *proc) scrape() (snapshot, error) {
	snap := snapshot{series: make(map[string]float64)}
	cli := &http.Client{Timeout: 10 * time.Second}
	resp, err := cli.Get("http://" + s.addr + "/metrics")
	if err != nil {
		return snap, fmt.Errorf("scrape /metrics: %w", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return snap, fmt.Errorf("scrape /metrics: %w", err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			snap.series[line[:i]] = v
		}
	}
	resp, err = cli.Get("http://" + s.addr + "/stats")
	if err != nil {
		return snap, fmt.Errorf("scrape /stats: %w", err)
	}
	var st struct {
		Mallocs float64 `json:"mallocs_since_start"`
		Served  float64 `json:"served"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return snap, fmt.Errorf("decode /stats: %w", err)
	}
	snap.mallocs, snap.served = st.Mallocs, st.Served
	snap.cpu, err = s.cpuSeconds()
	return snap, err
}

// sum adds every series of family name whose labels contain all of the
// given label pairs (written as `key="value"`).
func (sn snapshot) sum(name string, labels ...string) float64 {
	total := 0.0
	for k, v := range sn.series {
		fam, lab, _ := strings.Cut(k, "{")
		if fam != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(lab, l) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// mean averages every series of family name.
func (sn snapshot) mean(name string) float64 {
	total, n := 0.0, 0
	for k, v := range sn.series {
		if fam, _, _ := strings.Cut(k, "{"); fam == name {
			total += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// minus returns the counters' growth from a to sn.
func (sn snapshot) minus(a snapshot) snapshot {
	d := snapshot{series: make(map[string]float64, len(sn.series)),
		mallocs: sn.mallocs - a.mallocs, served: sn.served - a.served, cpu: sn.cpu - a.cpu}
	for k, v := range sn.series {
		d.series[k] = v - a.series[k]
	}
	return d
}

// plus adds two sets of counter growth.
func (sn snapshot) plus(b snapshot) snapshot {
	d := snapshot{series: make(map[string]float64, len(b.series)),
		mallocs: sn.mallocs + b.mallocs, served: sn.served + b.served, cpu: sn.cpu + b.cpu}
	for k, v := range sn.series {
		d.series[k] = v
	}
	for k, v := range b.series {
		d.series[k] += v
	}
	return d
}

// histMean is the mean observation of a histogram's growth: Δsum/Δcount,
// or 0 when nothing was observed.
func (sn snapshot) histMean(name string, labels ...string) float64 {
	n := sn.sum(name+"_count", labels...)
	if n <= 0 {
		return 0
	}
	return sn.sum(name+"_sum", labels...) / n
}
