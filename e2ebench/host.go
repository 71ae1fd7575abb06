package main

// Host interference. On a virtual machine the host can take a vCPU
// away from the guest ("steal"); a closed loop of two processes on two
// vCPUs then loses throughput in proportion, whatever the program does.
// Steal comes in bursts that last seconds, so the timed phase is cut
// into windows of about a second, the steal of each is read from /proc/stat,
// and the figures are taken over the windows the host left alone. The
// windows are chosen by steal alone, never by the figures measured in
// them, so the choice does not favour fast or slow seconds of the
// program itself.

import (
	"bytes"
	"os"
	"sort"
	"strconv"
	"time"
)

// quietSteal is the most steal, in USER_HZ ticks summed over all CPUs,
// a window may carry and still count as quiet: about 1% of one CPU.
const quietSteal = 1

// stealTicks returns the machine's total steal time in USER_HZ ticks,
// or 0 where /proc/stat has no steal column.
func stealTicks() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0
	}
	v, _ := strconv.ParseFloat(string(f[8]), 64)
	return v
}

// stealMarks reads the steal counter at the n+1 boundaries of n equal
// windows of d from start, and returns the readings once the last is in.
func stealMarks(start time.Time, d time.Duration, n int) <-chan []float64 {
	ch := make(chan []float64, 1)
	go func() {
		marks := make([]float64, n+1)
		for k := range marks {
			time.Sleep(time.Until(start.Add(d * time.Duration(k) / time.Duration(n))))
			marks[k] = stealTicks()
		}
		ch <- marks
	}()
	return ch
}

// quietWindows picks the windows the figures are taken over: every
// quiet window when at least half are quiet, else the half with the
// least steal (earlier windows first among equals).
func quietWindows(marks []float64) []bool {
	n := len(marks) - 1
	steal := make([]float64, n)
	order := make([]int, n)
	quiet := 0
	for k := range steal {
		steal[k] = marks[k+1] - marks[k]
		order[k] = k
		if steal[k] <= quietSteal {
			quiet++
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return steal[order[a]] < steal[order[b]] })
	keep := make([]bool, n)
	for _, k := range order[:max(quiet, (n+1)/2)] {
		keep[k] = true
	}
	return keep
}
