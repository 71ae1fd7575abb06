package main

// The traced run. It replays one generated operation stream in-process
// through each layer's public entry point, one layer at a time:
//
//	server   server.Server.Handler().ServeHTTP, no socket
//	shard    shard.Coordinator.SampleInto / SampleWoRInto / Insert / Delete
//	plan     shard.PlanWR / PlanWoR over per-shard RangeWeight / Count
//	service  service.Service.SampleInto / SampleWoRInto, per shard
//	core     core.RangeSampler.SampleInto / SampleWoRInto, per shard
//
// Every layer owns its own copy of the dataset, so no layer warms a
// cache another layer reads. The replay makes two passes, server with
// shard and service with core; within a pass each operation goes
// through both layers before the next one starts, so machine noise that
// drifts over the run hits a layer and the one below it alike. The
// benchmark's own code records a span around every call; spans of one
// operation share its index as identifier, are kept in memory and are
// written out as JSON lines when the run ends. A layer's self time is its mean time per read minus
// that of the layer below on the same reads.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/service"
	"repro/internal/shard"
)

// span is one timed call.
type span struct {
	id    int
	name  string
	start time.Duration // since the replay began
	dur   time.Duration
	draws int
}

// layer is one rung of the ladder: an entry point, and an oracle with
// its own view of the live set, since every layer applies the writes to
// its own copy of the data.
type layer struct {
	name       string
	positional bool // the layer promises exchangeable output order
	o          *oracle
	acc        accum
	sc         []float64
	// do performs operation i, recording its spans, and returns a
	// read's draws.
	do func(i int, q op) ([]float64, error)
}

type ladder struct {
	w      workload
	seed   uint64
	ops    []op
	values []float64
	parts  []part
	epoch  time.Time
	spans  []span
}

// replayOps generates the stream of a run's first segment: the
// connections' generators interleaved round-robin, with every write
// acknowledged.
func replayOps(w workload, seed uint64) []op {
	gens := make([]*generator, w.conns)
	for i := range gens {
		gens[i] = newGenerator(w, seed, 0, i)
	}
	ops := make([]op, w.replay)
	for i := range ops {
		g := gens[i%len(gens)]
		ops[i] = g.next()
		g.acked(ops[i])
	}
	return ops
}

func (l *ladder) record(id int, name string, start time.Time, draws int) {
	l.spans = append(l.spans, span{id: id, name: name, start: start.Sub(l.epoch), dur: time.Since(start), draws: draws})
}

// rnd gives operation i its own random stream.
func (l *ladder) rnd(i int) *core.Rand {
	return core.NewRand(l.seed*0x9e3779b97f4a7c15 + uint64(i) + 1)
}

func (l *ladder) newLayer(name string, positional, live bool, do func(int, op) ([]float64, error)) *layer {
	ly := &layer{name: name, positional: positional, o: &oracle{n: int64(l.w.n)}, do: do}
	if live {
		ly.o.live = newLiveSet(l.w.n)
	}
	return ly
}

// apply runs operation i on the layer and checks the answer.
func (ly *layer) apply(i int, q op) error {
	live := ly.o.live
	var win window
	if live != nil {
		switch q.kind {
		case opRead:
			win = live.begin(q.lo, q.hi)
		case opInsert:
			live.beginInsert(q.ins)
		case opDelete:
			live.beginDelete(q.ins)
		}
	}
	out, err := ly.do(i, q)
	if err != nil {
		return fmt.Errorf("%s layer, operation %d (%v): %w", ly.name, i, q.kind, err)
	}
	switch {
	case q.kind == opRead:
		if live != nil {
			live.end(&win)
		}
		if err := ly.o.check(q, out, &win, &ly.acc, &ly.sc); err != nil {
			return fmt.Errorf("%s layer, read %d [%d, %d]: %w", ly.name, i, q.lo, q.hi, err)
		}
	case live == nil:
	case q.kind == opInsert:
		live.ackInsert(q.ins)
	case q.kind == opDelete:
		live.ackDelete(q.ins)
	}
	return nil
}

func (l *ladder) shardOptions() shard.Options {
	opts := shard.Options{Shards: shards}
	if l.w.mutable {
		opts.Mutable = true
		opts.Ingest = service.MutableOptions{Seed: l.seed}
		opts.RebalanceInterval = 500 * time.Millisecond
	}
	return opts
}

// runLadder replays the stream through every layer and returns the
// per-layer metrics it measures.
func runLadder(w workload, seed uint64, spanDir string) (map[string]float64, error) {
	l := &ladder{w: w, seed: seed, ops: replayOps(w, seed), epoch: time.Now()}
	l.values = make([]float64, w.n)
	for i := range l.values {
		l.values[i] = float64(i)
	}
	l.parts = partition(l.values)
	m := map[string]float64{}
	ctx := context.Background()

	// Two passes, each over two adjacent layers, so at most two copies
	// of the dataset are live at once.
	t0 := time.Now()
	front, err := shard.New(ctx, "iqs", l.values, nil, l.shardOptions())
	if err != nil {
		return nil, fmt.Errorf("build coordinator: %w", err)
	}
	m["setup.build_s"] = time.Since(t0).Seconds()
	coord, err := shard.New(ctx, "iqs", l.values, nil, l.shardOptions())
	if err != nil {
		front.Close()
		return nil, fmt.Errorf("build coordinator: %w", err)
	}
	err = l.pass(l.serverLayer(front), l.shardLayer(ctx, coord))
	front.Close()
	coord.Close()
	front, coord = nil, nil
	runtime.GC()
	if err != nil {
		return nil, err
	}

	svcs, err := l.services(ctx)
	defer func() {
		for _, s := range svcs {
			s.Close()
		}
	}()
	if err != nil {
		return nil, err
	}
	samplers, err := l.samplers()
	if err != nil {
		return nil, err
	}
	if err := l.pass(l.serviceLayer(ctx, svcs), l.coreLayer(samplers)); err != nil {
		return nil, err
	}
	l.summarize(m)
	if err := l.writeSpans(spanDir); err != nil {
		return nil, err
	}
	return m, nil
}

// pass replays the whole stream through the given layers, each
// operation through every layer before the next operation starts, then
// runs each layer's statistical tests.
func (l *ladder) pass(layers ...*layer) error {
	for i, q := range l.ops {
		for _, ly := range layers {
			if err := ly.apply(i, q); err != nil {
				return err
			}
		}
	}
	for _, ly := range layers {
		if errs := verdict(&ly.acc, ly.positional); len(errs) > 0 {
			return fmt.Errorf("%s layer: %w", ly.name, errors.Join(errs...))
		}
	}
	return nil
}

// recorder is a minimal http.ResponseWriter for socket-free serving.
type recorder struct {
	h      http.Header
	status int
	body   []byte
}

func (r *recorder) Header() http.Header { return r.h }
func (r *recorder) WriteHeader(s int) {
	if r.status == 0 {
		r.status = s
	}
}
func (r *recorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	r.body = append(r.body, p...)
	return len(p), nil
}

func (l *ladder) serverLayer(coord *shard.Coordinator) *layer {
	h := server.New(coord, server.Options{Seed: l.seed}).Handler()
	rec := &recorder{h: http.Header{}}
	var out []float64
	return l.newLayer("server", true, l.w.mutable, func(i int, q op) ([]float64, error) {
		req, err := l.httpRequest(q)
		if err != nil {
			return nil, err
		}
		rec.status, rec.body = 0, rec.body[:0]
		clear(rec.h)
		start := time.Now()
		h.ServeHTTP(rec, req)
		l.record(i, "server.call", start, q.k)
		if rec.status != http.StatusOK {
			return nil, fmt.Errorf("status %d: %.200s", rec.status, rec.body)
		}
		if q.kind != opRead {
			return nil, nil
		}
		out, err = decodeSamples(rec.body, l.w.binary, out[:0])
		return out, err
	})
}

// httpRequest renders q as the request a client would send.
func (l *ladder) httpRequest(q op) (*http.Request, error) {
	if q.kind == opRead {
		url := "/sample?lo=" + strconv.FormatInt(q.lo, 10) + "&hi=" + strconv.FormatInt(q.hi, 10) +
			"&k=" + strconv.Itoa(q.k)
		if q.wor {
			url += "&wor=true"
		}
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err == nil && l.w.binary {
			req.Header.Set("Accept", binContentType)
		}
		return req, err
	}
	path, body := writeBody(q)
	req, err := http.NewRequest(http.MethodPost, path, strings.NewReader(string(body)))
	if err == nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return req, err
}

func (l *ladder) shardLayer(ctx context.Context, coord *shard.Coordinator) *layer {
	var out []float64
	return l.newLayer("shard", true, l.w.mutable, func(i int, q op) ([]float64, error) {
		var err error
		start := time.Now()
		switch {
		case q.kind == opInsert:
			err = coord.Insert(ctx, q.ins.value, q.ins.weight)
			l.record(i, "shard.write", start, 0)
		case q.kind == opDelete:
			err = coord.Delete(ctx, q.ins.value)
			l.record(i, "shard.write", start, 0)
		case q.wor:
			out, err = coord.SampleWoRInto(ctx, l.rnd(i), float64(q.lo), float64(q.hi), q.k, out[:0])
			l.record(i, "shard.call", start, q.k)
		default:
			out, err = coord.SampleInto(ctx, l.rnd(i), float64(q.lo), float64(q.hi), q.k, out[:0])
			l.record(i, "shard.call", start, q.k)
		}
		return out, err
	})
}

// part is one shard's slice of the dataset and its ownership interval,
// cut as the coordinator cuts them.
type part struct {
	values []float64
	lo, hi float64
}

func partition(sorted []float64) []part {
	runs := shard.CutRuns(sorted, shards)
	ps := make([]part, len(runs))
	for i, r := range runs {
		ps[i].values = sorted[r[0]:r[1]]
		ps[i].lo, ps[i].hi = shard.RunBounds(sorted, runs, i)
	}
	return ps
}

// overlaps returns the parts whose interval meets [lo, hi].
func overlaps(ps []part, lo, hi float64) []int {
	var idx []int
	for i, p := range ps {
		if hi >= p.lo && lo < p.hi {
			idx = append(idx, i)
		}
	}
	return idx
}

// owner returns the part whose interval holds v.
func owner(ps []part, v float64) int {
	for i, p := range ps {
		if v < p.hi {
			return i
		}
	}
	return len(ps) - 1
}

// plan splits a read's budget over the overlapping parts as the
// coordinator does: the whole budget on a single overlap, else a
// multinomial split by range weight (WR) or a hypergeometric split by
// range count (WoR).
func plan(r *core.Rand, q op, idx []int, weight func(int) (float64, error), count func(int) (int, error)) ([]int, error) {
	if q.wor {
		counts := make([]int, len(idx))
		for j, p := range idx {
			c, err := count(p)
			if err != nil {
				return nil, err
			}
			counts[j] = c
		}
		return shard.PlanWoR(r, q.k, counts)
	}
	if len(idx) == 1 {
		return []int{q.k}, nil
	}
	ws := make([]float64, len(idx))
	for j, p := range idx {
		wt, err := weight(p)
		if err != nil {
			return nil, err
		}
		ws[j] = wt
	}
	return shard.PlanWR(r, q.k, ws)
}

// dsName is the dataset name each per-shard service holds.
const dsName = "shard"

func (l *ladder) services(ctx context.Context) ([]*service.Service, error) {
	var svcs []*service.Service
	for i, p := range l.parts {
		svc := service.New(service.Options{})
		svcs = append(svcs, svc)
		values := append([]float64(nil), p.values...)
		var err error
		if l.w.mutable {
			err = svc.CreateMutable(ctx, dsName, core.KindChunked, values, nil, service.MutableOptions{Seed: l.seed + uint64(i)})
		} else {
			err = svc.Create(ctx, dsName, core.KindChunked, values, nil)
		}
		if err != nil {
			return svcs, fmt.Errorf("build service %d: %w", i, err)
		}
	}
	return svcs, nil
}

// serviceLayer replays the stream over one service per shard: the plan
// span covers the budget split, one service span each shard's draw.
func (l *ladder) serviceLayer(ctx context.Context, svcs []*service.Service) *layer {
	var out []float64
	return l.newLayer("service", false, l.w.mutable, func(i int, q op) ([]float64, error) {
		switch q.kind {
		case opInsert:
			return nil, svcs[owner(l.parts, q.ins.value)].Insert(ctx, dsName, q.ins.value, q.ins.weight)
		case opDelete:
			return nil, svcs[owner(l.parts, q.ins.value)].Delete(ctx, dsName, q.ins.value)
		}
		lo, hi := float64(q.lo), float64(q.hi)
		r := l.rnd(i)
		idx := overlaps(l.parts, lo, hi)
		start := time.Now()
		budgets, err := plan(r, q, idx,
			func(p int) (float64, error) { return svcs[p].RangeWeight(ctx, dsName, lo, hi) },
			func(p int) (int, error) { return svcs[p].Count(ctx, dsName, lo, hi) })
		l.record(i, "shard.plan", start, 0)
		if err != nil {
			return nil, err
		}
		out = out[:0]
		for j, p := range idx {
			if budgets[j] == 0 {
				continue
			}
			start := time.Now()
			if q.wor {
				out, err = svcs[p].SampleWoRInto(ctx, r, dsName, lo, hi, budgets[j], out)
			} else {
				out, err = svcs[p].SampleInto(ctx, r, dsName, lo, hi, budgets[j], out)
			}
			l.record(i, "service.call", start, budgets[j])
			if err != nil {
				return nil, err
			}
		}
		return out, nil
	})
}

func (l *ladder) samplers() ([]*core.RangeSampler, error) {
	var ss []*core.RangeSampler
	for i, p := range l.parts {
		s, err := core.NewRangeSampler(core.KindChunked, p.values, nil)
		if err != nil {
			return nil, fmt.Errorf("build core sampler %d: %w", i, err)
		}
		ss = append(ss, s)
	}
	return ss, nil
}

// coreLayer replays the reads over one static core.RangeSampler per
// shard, built over the seeded dataset. Writes have no core entry point
// (the structures are static), so under churn the core layer answers
// from the seeded set alone.
func (l *ladder) coreLayer(ss []*core.RangeSampler) *layer {
	sc := core.NewScratch()
	var out []float64
	return l.newLayer("core", false, false, func(i int, q op) ([]float64, error) {
		if q.kind != opRead {
			return nil, nil
		}
		lo, hi := float64(q.lo), float64(q.hi)
		r := l.rnd(i)
		idx := overlaps(l.parts, lo, hi)
		budgets, err := plan(r, q, idx,
			func(p int) (float64, error) { return ss[p].RangeWeight(lo, hi), nil },
			func(p int) (int, error) { return ss[p].Count(lo, hi), nil })
		if err != nil {
			return nil, err
		}
		out = out[:0]
		for j, p := range idx {
			if budgets[j] == 0 {
				continue
			}
			start := time.Now()
			if q.wor {
				out, err = ss[p].SampleWoRInto(r, lo, hi, budgets[j], out, sc)
			} else {
				var ok bool
				if out, ok = ss[p].SampleInto(r, lo, hi, budgets[j], out, sc); !ok {
					err = core.ErrEmptyRange
				}
			}
			l.record(i, "core.call", start, budgets[j])
			if err != nil {
				return nil, err
			}
		}
		return out, nil
	})
}

// summarize turns spans into per-layer metrics: mean time per read for
// each layer, self times by subtraction on the same reads, and kernel
// nanoseconds per draw.
func (l *ladder) summarize(m map[string]float64) {
	total := map[string]time.Duration{}
	calls := map[string]int{}
	draws := map[string]int{}
	reads := 0
	for _, q := range l.ops {
		if q.kind == opRead {
			reads++
		}
	}
	for _, s := range l.spans {
		if s.name == "server.call" && l.ops[s.id].kind != opRead {
			continue // writes; the shard.write spans time the ingest path
		}
		total[s.name] += s.dur
		calls[s.name]++
		draws[s.name] += s.draws
	}
	perRead := func(name string) float64 {
		return float64(total[name].Nanoseconds()) / 1e3 / float64(reads)
	}
	m["server.call_us"] = perRead("server.call")
	m["shard.call_us"] = perRead("shard.call")
	m["shard.plan_us"] = perRead("shard.plan")
	m["service.call_us"] = perRead("service.call")
	m["core.call_us"] = perRead("core.call")
	m["server.self_us"] = m["server.call_us"] - m["shard.call_us"]
	m["shard.self_us"] = m["shard.call_us"] - m["shard.plan_us"] - m["service.call_us"]
	m["service.self_us"] = m["service.call_us"] - m["core.call_us"]
	m["shard.shards_per_query"] = float64(calls["service.call"]) / float64(reads)
	if d := draws["core.call"]; d > 0 {
		m["core.ns_per_draw"] = float64(total["core.call"].Nanoseconds()) / float64(d)
	}
	if n := calls["shard.write"]; n > 0 {
		m["ingest.write_us"] = float64(total["shard.write"].Nanoseconds()) / 1e3 / float64(n)
	}
}

// writeSpans writes every span as one JSON line.
func (l *ladder) writeSpans(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", l.w.name, l.seed)))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, s := range l.spans {
		fmt.Fprintf(bw, `{"trace":"%s/%d/%d","span":"%s","start_ns":%d,"dur_ns":%d,"draws":%d}`+"\n",
			l.w.name, l.seed, s.id, s.name, s.start.Nanoseconds(), s.dur.Nanoseconds(), s.draws)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
