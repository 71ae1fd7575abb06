package main

import (
	"fmt"
	"math/rand/v2"
)

// shards is iqsserve's default partition count. The benchmark never
// passes -shards; the generator only needs it to place the hot window
// inside one shard and the in-process ladder needs it to rebuild the
// same partition.
const shards = 4

// workload is one traffic mix. Every workload is a closed loop: each
// connection sends its next request only after the previous answer has
// been read to the last byte.
type workload struct {
	name    string
	n       int     // dataset size: the integers 0..n-1, weight 1 each
	conns   int     // closed-loop connections, at most nproc
	binary  bool    // negotiate the binary response framing
	mutable bool    // start the server with -mutable and send writes
	k       int     // draws per read
	minW    float64 // read width, as a share of n, drawn uniformly
	maxW    float64 //   from [minW, maxW]
	worEach int     // every worEach-th read is WoR (0: never)
	hot     float64 // share of reads aimed at the hot window
	writes  float64 // share of operations that are writes
	unique  bool    // never repeat a read window
	replay  int     // operations replayed per layer in the traced run
	// lifetimes is how many of a run's servers carry traffic, each for
	// an equal share of the timed phase.
	lifetimes int
}

var workloads = []workload{
	{name: "serial_spread", n: 1 << 20, conns: 1, k: 8, minW: 0.25, maxW: 0.75, worEach: 8, unique: true, replay: 10000, lifetimes: 3},
	{name: "hot_pair", n: 1 << 20, conns: 2, binary: true, k: 8, minW: 0.125, maxW: 0.5, hot: 0.9, replay: 20000, lifetimes: 3},
	{name: "bulk_draws", n: 1 << 22, conns: 1, binary: true, k: 1024, minW: 0.5, maxW: 1, worEach: 4, replay: 800, lifetimes: 3},
	// churn_rw serves from one server for the whole timed phase: a
	// shard rebuilds every 4096 writes it receives, and a third of the
	// phase is too short for any shard to get there.
	{name: "churn_rw", n: 1 << 18, conns: 2, mutable: true, k: 8, minW: 0.125, maxW: 0.5, writes: 0.3, replay: 10000, lifetimes: 1},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

type opKind uint8

const (
	opRead opKind = iota
	opInsert
	opDelete
)

// op is one generated request. Read windows have integer bounds, so the
// seeded integers inside [lo, hi] number hi-lo+1 and an inserted value
// j+f (0 < f < 1) lies inside exactly when lo <= j < hi.
type op struct {
	kind   opKind
	lo, hi int64
	k      int
	wor    bool
	ins    *insert // the insert a write creates or deletes
}

// insert is one value the generator wrote. Values are j + f with j a
// seeded integer and f a fraction unique to the insert, so an insert
// never collides with the seeded set or with another insert.
type insert struct {
	value  float64
	weight float64
	slot   int64 // j
	// Guarded by liveSet.mu once the insert is registered.
	delAck uint64 // clock value at which the delete was acknowledged; 0 while live
}

// fracBits bounds the inserts per run: each takes a distinct multiple of
// 2^-fracBits, and j+f stays exact in a float64 for n < 2^(53-fracBits).
const fracBits = 24

// hotWindow is the hot window: 1/64 of the dataset, centred in shard 1.
// It is the same for every seed, so that where the window falls
// relative to the index's chunk boundaries does not vary between runs.
func hotWindow(w workload) (lo, hi int64) {
	width := int64(w.n / 64)
	lo = int64(3*w.n/8) - width/2
	return lo, lo + width - 1
}

// generator produces one connection's request stream from the workload
// seed. The stream depends only on (seed, segment, connection) and on
// which of the connection's own writes were acknowledged, so a replay
// in which every write succeeds reproduces it exactly.
type generator struct {
	w       workload
	conn    int
	r       *rand.Rand
	reads   int
	inserts int
	hotLo   int64
	hotHi   int64
	own     []*insert // acknowledged, not yet deleted
	seen    map[[2]int64]struct{}
}

func newGenerator(w workload, seed uint64, seg, conn int) *generator {
	stream := uint64(seg*w.conns+conn) + 1
	g := &generator{w: w, conn: conn, r: rand.New(rand.NewPCG(seed, stream))}
	g.hotLo, g.hotHi = hotWindow(w)
	if w.unique {
		g.seen = make(map[[2]int64]struct{})
	}
	return g
}

func (g *generator) next() op {
	if g.w.writes > 0 && g.r.Float64() < g.w.writes {
		// Inserts outnumber deletes 3:2, so the live inserted weight
		// grows through the run and the weight-proportionality check
		// has inserted draws to count.
		if len(g.own) > 0 && g.r.Float64() < 0.4 {
			i := g.r.IntN(len(g.own))
			in := g.own[i]
			g.own[i] = g.own[len(g.own)-1]
			g.own = g.own[:len(g.own)-1]
			return op{kind: opDelete, ins: in}
		}
		id := uint64(g.inserts)*uint64(g.w.conns) + uint64(g.conn) + 1
		g.inserts++
		slot := g.r.Int64N(int64(g.w.n - 1))
		in := &insert{
			value:  float64(slot) + float64(id)/(1<<fracBits),
			weight: float64(2 + g.r.IntN(3)),
			slot:   slot,
		}
		return op{kind: opInsert, ins: in}
	}
	g.reads++
	o := op{kind: opRead, k: g.w.k}
	if g.w.worEach > 0 && g.reads%g.w.worEach == 0 {
		o.wor = true
	}
	if g.w.hot > 0 && g.r.Float64() < g.w.hot {
		o.lo, o.hi = g.hotLo, g.hotHi
		return o
	}
	n := float64(g.w.n)
	for {
		width := int64(n * (g.w.minW + (g.w.maxW-g.w.minW)*g.r.Float64()))
		o.lo = g.r.Int64N(int64(g.w.n) - width + 1)
		o.hi = o.lo + width - 1
		if g.seen == nil {
			return o
		}
		key := [2]int64{o.lo, o.hi}
		if _, dup := g.seen[key]; !dup {
			g.seen[key] = struct{}{}
			return o
		}
	}
}

// acked tells the generator that its last insert was acknowledged, so
// a later write may delete it.
func (g *generator) acked(o op) {
	if o.kind == opInsert {
		g.own = append(g.own, o.ins)
	}
}
