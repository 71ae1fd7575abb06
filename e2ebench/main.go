// Command e2ebench is the repository's end-to-end benchmark. It starts
// the iqsserve binary built from the tree under test in its own process
// with shipped defaults, drives it over loopback keep-alive connections
// in closed loops, checks every answer against an oracle computed from
// the dataset definition, and prints every metric by name and unit.
//
//	e2ebench -server BIN --workload NAME --seed N --seconds S --trace 0|1
//	e2ebench -server BIN --workload NAME --seed N --seconds S --repeat R
//
// The last line of standard output is one JSON object. With --trace 0
// it carries the end-to-end metrics, with --trace 1 the per-layer ones.
// --repeat runs the workload R times on seeds N..N+R-1 and prints each
// end-to-end metric's median and quartiles instead. run.sh builds both
// binaries and is the command to use; see README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"syscall"
	"time"
)

// spanDir is where the traced run writes its spans, under the
// checkout's build directory.
const spanDir = ".bench_build/spans"

// warmup runs before every timed phase, so connections, caches and the
// Go runtimes of both processes are warm when timing starts.
const warmup = time.Second

// setups is how many servers a run starts; setup_s is the median of
// their set-up times. The last workload.lifetimes of them each serve an
// equal share of the timed phase, so effects of one process's history,
// such as where garbage collection fell during the build that sets the
// peak RSS, are averaged over them; rss_mb is the median of their peaks.
const setups = 3

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Units of every metric the benchmark reports.
var units = map[string]string{
	"qps": "req/s", "p50_us": "us", "p90_us": "us", "setup_s": "s", "rss_mb": "MB",

	"server.handler_us": "us", "server.admit_us": "us", "server.decode_us": "us", "server.encode_us": "us",
	"server.coalesce_batch": "count", "server.coalesce_linger_us": "us",
	"server.allocs_per_req": "count", "server.cpu_us_per_req": "us",
	"net.transport_us": "us",
	"shard.fanout_us":  "us", "shard.shards_per_query": "count", "shard.merge_us": "us",
	"service.draw_us":      "us",
	"samplepool.hit_ratio": "ratio",
	"ingest.write_us":      "us", "ingest.rebuilds": "count", "ingest.rebuild_s": "s", "ingest.overlay_fraction": "ratio",
	"client.cpu_us_per_req": "us",

	"server.call_us": "us", "server.self_us": "us", "shard.call_us": "us", "shard.self_us": "us",
	"shard.plan_us": "us", "service.call_us": "us", "service.self_us": "us",
	"core.call_us": "us", "core.ns_per_draw": "ns", "setup.build_s": "s",
}

var endToEnd = []string{"qps", "p50_us", "p90_us", "setup_s", "rss_mb"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bin     = fs.String("server", "", "path of the iqsserve binary under test")
		name    = fs.String("workload", "", "workload: serial_spread | hot_pair | bulk_draws | churn_rw")
		seed    = fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = fs.Int("seconds", 10, "length of the timed phase")
		trace   = fs.Int("trace", 0, "1 reports the per-layer metrics, with the traced in-process replay")
		repeat  = fs.Int("repeat", 0, "run the workload this many times on consecutive seeds and print medians and quartiles")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *bin == "" || *seconds < 1 || *trace < 0 || *trace > 1 || *repeat < 0 {
		fmt.Fprintf(stderr, "e2ebench: bad arguments (%v)\n", err)
		fs.Usage()
		return 2
	}
	if _, err := os.Stat(*bin); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	d := time.Duration(*seconds) * time.Second
	if *repeat > 0 {
		return repeatRuns(stdout, stderr, *bin, w, *seed, d, *repeat)
	}
	res, err := measure(stderr, *bin, w, *seed, d, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", w.name, err)
		return 1
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	return 0
}

// segment is one server lifetime of a run: its set-up time, its peak
// RSS, the answers of its warm-up and timed phase, and the server's own
// counters over the timed phase.
type segment struct {
	setup, hwm float64
	stats      []*connStats // warm-up and timed phase
	timed      []*connStats
	counters   snapshot // after minus before the timed phase
	gauges     snapshot // at the end of the timed phase
	windows    int
	keep       []bool
	clientCPU  float64
}

// runSegment starts a fresh server with serverSeed and times its
// set-up. seg numbers the serving lifetimes of a run from 0; a serving
// lifetime then warms the server up and drives it for d. It stops the
// server.
func runSegment(bin string, w workload, seed, serverSeed uint64, seg int, d time.Duration) (*segment, error) {
	srv, took, err := startServer(bin, w, serverSeed)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	sg := &segment{setup: took.Seconds(), windows: max(1, int(d/time.Second))}
	if seg < 0 {
		return sg, nil
	}
	o := &oracle{n: int64(w.n)}
	if w.mutable {
		o.live = newLiveSet(w.n)
	}
	gens := make([]*generator, w.conns)
	clients := make([]*client, w.conns)
	for i := range gens {
		gens[i] = newGenerator(w, seed, seg, i)
		clients[i] = &client{addr: srv.addr}
		defer clients[i].close()
	}
	warm := runPhase(clients, gens, o, w, time.Now(), warmup)
	before, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	marks := stealMarks(start, d, sg.windows)
	cpu0 := selfCPU()
	sg.timed = runPhase(clients, gens, o, w, start, d)
	sg.clientCPU = selfCPU() - cpu0
	after, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	sg.counters, sg.gauges = after.minus(before), after
	sg.hwm, err = statusKB(fmt.Sprintf("/proc/%d/status", srv.cmd.Process.Pid), "VmHWM")
	if err != nil {
		return nil, err
	}
	sg.keep = quietWindows(<-marks)
	sg.stats = append(warm, sg.timed...)
	return sg, nil
}

// measure makes one run: setups server starts, the last
// w.lifetimes of them serving their share of the timed phase, and,
// when traced, the in-process replay.
func measure(stderr io.Writer, bin string, w workload, seed uint64, d time.Duration, traced bool) (*result, error) {
	var segs []*segment
	var setupTimes []float64
	share := d / time.Duration(w.lifetimes)
	for i := 0; i < setups; i++ {
		// Every server gets its own seed. Servers started with one seed
		// draw the same random streams for the same request sequence
		// numbers, so answers to a window would repeat across lifetimes
		// and the oracle's pooled tests, which assume independent
		// answers, would read every repeat as bias.
		seg := i - (setups - w.lifetimes)
		sg, err := runSegment(bin, w, seed, seed*setups+uint64(i), seg, share)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, sg.setup)
		if seg >= 0 {
			segs = append(segs, sg)
		}
	}

	var acc accum
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var lats []float64 // operations completed in the kept windows
	var hwms []float64
	var readLat, clientCPU float64
	var reads int64
	var counters snapshot
	kept, windows := 0, 0
	for _, sg := range segs {
		hwms = append(hwms, sg.hwm)
		counters = counters.plus(sg.counters)
		clientCPU += sg.clientCPU
		winLen := share / time.Duration(sg.windows)
		for _, s := range sg.stats {
			acc.merge(&s.acc)
			if s.wrong > 0 {
				res.Correct = false
				fmt.Fprintf(stderr, "e2ebench: %d wrong answers, first: %s\n", s.wrong, s.firstErr)
			} else if s.failed > 0 {
				fmt.Fprintf(stderr, "e2ebench: %d failed operations, first: %s\n", s.failed, s.firstErr)
			}
		}
		for _, s := range sg.timed {
			res.Attempted += s.attempted
			res.Failed += s.failed
			for i, end := range s.ends {
				if k := int(end / winLen); k < sg.windows && sg.keep[k] {
					lats = append(lats, s.lats[i])
				}
			}
			readLat += s.readLatSum
			reads += s.reads
		}
		for _, k := range sg.keep {
			if k {
				kept++
			}
		}
		windows += sg.windows
	}
	for _, err := range verdict(&acc, true) {
		res.Correct = false
		fmt.Fprintf(stderr, "e2ebench: oracle: %v\n", err)
	}
	if res.Attempted == 0 || len(lats) == 0 {
		return nil, errors.New("no operation completed in the timed phase")
	}
	fmt.Fprintf(stderr, "e2ebench: %s: figures over %d of %d windows\n", w.name, kept, windows)
	sort.Float64s(lats)
	put := func(name string, v float64) { res.Metrics[name] = metric{Value: v, Unit: units[name]} }
	if !traced {
		keptSeconds := float64(kept) * (share / time.Duration(segs[0].windows)).Seconds()
		put("qps", float64(len(lats))/keptSeconds)
		put("p50_us", percentile(lats, 0.50))
		put("p90_us", percentile(lats, 0.90))
		_, setup, _ := quartiles(setupTimes)
		put("setup_s", setup)
		_, hwm, _ := quartiles(hwms)
		put("rss_mb", hwm/1024)
		return res, nil
	}

	served := counters.served
	perServed := func(v float64) float64 {
		if served <= 0 {
			return 0
		}
		return v / served
	}
	put("server.handler_us", 1e6*counters.histMean("iqs_server_request_seconds", `path="/sample"`))
	put("server.admit_us", 1e6*counters.histMean("iqs_server_stage_seconds", `stage="admit"`))
	put("server.decode_us", 1e6*counters.histMean("iqs_server_stage_seconds", `stage="decode"`))
	put("server.encode_us", 1e6*counters.histMean("iqs_server_stage_seconds", `stage="encode"`))
	put("server.coalesce_batch", counters.histMean("iqs_coalesce_batch_size"))
	put("server.coalesce_linger_us", 1e6*counters.histMean("iqs_coalesce_linger_seconds"))
	put("server.allocs_per_req", perServed(counters.mallocs))
	put("server.cpu_us_per_req", 1e6*perServed(counters.cpu))
	if reads > 0 {
		put("net.transport_us", readLat/float64(reads)-res.Metrics["server.handler_us"].Value)
	}
	put("shard.fanout_us", 1e6*counters.histMean("iqs_shard_fanout_seconds"))
	put("shard.merge_us", 1e6*counters.histMean("iqs_shard_merge_seconds"))
	put("service.draw_us", 1e6*counters.histMean("iqs_service_sample_seconds"))
	hits := counters.sum("iqs_pool_hits_total")
	lookups := hits + counters.sum("iqs_pool_partial_hits_total") + counters.sum("iqs_pool_misses_total")
	if lookups > 0 {
		put("samplepool.hit_ratio", hits/lookups)
	} else {
		put("samplepool.hit_ratio", 0)
	}
	put("ingest.rebuilds", counters.sum("iqs_ingest_rebuilds_total")/float64(w.lifetimes))
	put("ingest.rebuild_s", counters.histMean("iqs_ingest_rebuild_seconds"))
	overlay := 0.0
	for _, sg := range segs {
		overlay += sg.gauges.mean("iqs_ingest_overlay_fraction") / float64(len(segs))
	}
	put("ingest.overlay_fraction", overlay)
	put("client.cpu_us_per_req", 1e6*clientCPU/float64(res.Attempted))

	layers, err := runLadder(w, seed, spanDir)
	if err != nil {
		res.Correct = false
		fmt.Fprintf(stderr, "e2ebench: traced replay: %v\n", err)
		layers = map[string]float64{}
	}
	if kb, err := statusKB("/proc/self/status", "VmHWM"); err == nil {
		fmt.Fprintf(stderr, "e2ebench: benchmark process peak RSS %.0f MB\n", kb/1024)
	}
	for name := range units {
		if _, ok := res.Metrics[name]; !ok && !slices.Contains(endToEnd, name) {
			put(name, layers[name])
		}
	}
	return res, nil
}

// percentile is the nearest-rank percentile of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

// selfCPU returns this process's user+system CPU seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// quartiles returns the first quartile, median and third quartile by
// the exclusive method of Python's statistics.quantiles(n=4).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	if len(s) < 2 {
		return s[0], s[0], s[0]
	}
	return q(1), q(2), q(3)
}

// repeatRuns runs the workload n times on consecutive seeds and prints,
// per end-to-end metric, the median, the quartiles and the spread: the
// interquartile distance as a share of the median.
func repeatRuns(stdout, stderr io.Writer, bin string, w workload, seed uint64, d time.Duration, n int) int {
	vals := map[string][]float64{}
	var attempted, failed int64
	correct := true
	for i := 0; i < n; i++ {
		res, err := measure(stderr, bin, w, seed+uint64(i), d, false)
		if err != nil {
			fmt.Fprintf(stderr, "e2ebench: %s seed %d: %v\n", w.name, seed+uint64(i), err)
			return 1
		}
		correct = correct && res.Correct
		attempted += res.Attempted
		failed += res.Failed
		for k, m := range res.Metrics {
			vals[k] = append(vals[k], m.Value)
		}
		fmt.Fprintf(stderr, "e2ebench: %s seed %d: qps %.1f p50 %.1fus p90 %.1fus setup %.4fs rss %.1fMB\n",
			w.name, seed+uint64(i), res.Metrics["qps"].Value, res.Metrics["p50_us"].Value,
			res.Metrics["p90_us"].Value, res.Metrics["setup_s"].Value, res.Metrics["rss_mb"].Value)
	}
	type summary struct {
		Median float64 `json:"median"`
		Q1     float64 `json:"q1"`
		Q3     float64 `json:"q3"`
		Spread float64 `json:"spread"`
		Unit   string  `json:"unit"`
	}
	out := map[string]summary{}
	fmt.Fprintf(stdout, "%s, %d runs, seeds %d..%d\n", w.name, n, seed, seed+uint64(n)-1)
	for _, k := range endToEnd {
		q1, q2, q3 := quartiles(vals[k])
		s := summary{Median: q2, Q1: q1, Q3: q3, Spread: (q3 - q1) / q2, Unit: units[k]}
		out[k] = s
		fmt.Fprintf(stdout, "  %-8s median %12.4f  q1 %12.4f  q3 %12.4f  spread %6.2f%%  %s\n",
			k, s.Median, s.Q1, s.Q3, 100*s.Spread, s.Unit)
	}
	line, _ := json.Marshal(map[string]any{"workload": w.name, "runs": n, "correct": correct,
		"attempted": attempted, "failed": failed, "metrics": out})
	fmt.Fprintln(stdout, string(line))
	return 0
}
