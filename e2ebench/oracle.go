package main

// The output oracle. It is derived from the dataset definition and the
// sampling contract alone, never from the program's code or a recording
// of its output:
//
//   - the seeded dataset is the integers 0..n-1, weight 1 each; under
//     churn it also holds the generator's own inserts (non-integers,
//     weights 2..4) from the moment the insert is sent until its delete
//     is acknowledged;
//   - a read of k draws over [lo, hi] answers exactly k values, each in
//     [lo, hi] and in the dataset, and a WoR answer has no duplicates;
//   - every output position is an independent weight-proportional draw
//     from S ∩ [lo, hi]. Conditional on hitting a seeded integer, a
//     draw's rank within the range is uniform, so a pooled chi-squared
//     test of rank bins runs on the first draw, the last draw and all
//     draws. Under churn a second test checks that the share of draws
//     landing on inserts matches the inserted weight in the range.

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// rankBins is the number of equal-probability rank bins per range.
const rankBins = 16

// alpha is the false-alarm rate of each statistical test. A run makes
// at most six, so a correct program fails a run about once in 10^5.
const alpha = 1e-6

// zAlpha is the two-sided normal quantile for alpha.
const zAlpha = 4.8916

// Output positions the statistical tests run on.
const (
	posFirst = iota
	posLast
	posAll
	numPos
)

var posNames = [numPos]string{"first draw", "last draw", "all draws"}

// fenwick is a binary indexed tree of float64 sums over slots 0..n-1.
type fenwick []float64

func newFenwick(n int) fenwick { return make(fenwick, n+1) }

func (f fenwick) add(i int64, d float64) {
	for i++; i < int64(len(f)); i += i & -i {
		f[i] += d
	}
}

// sum returns the total over slots [0, i).
func (f fenwick) sum(i int64) float64 {
	s := 0.0
	for ; i > 0; i -= i & -i {
		s += f[i]
	}
	return s
}

func (f fenwick) rangeSum(lo, hi int64) float64 { return f.sum(hi) - f.sum(lo) }

// liveSet tracks the generator's inserts across all connections. An
// insert is "possible" from the moment it is sent until its delete is
// acknowledged, and "definite" from its acknowledgement until its
// delete is sent. The cumulative trees record weight entering the
// possible set and leaving the definite set, so a read can bound the
// inserted weight live at any instant between its send and its answer.
type liveSet struct {
	mu    sync.Mutex
	clock uint64
	byVal map[float64]*insert
	def   fenwick
	pos   fenwick
	left  fenwick // cumulative weight that left def
	enter fenwick // cumulative weight that entered pos
}

func newLiveSet(n int) *liveSet {
	return &liveSet{byVal: make(map[float64]*insert), def: newFenwick(n), pos: newFenwick(n),
		left: newFenwick(n), enter: newFenwick(n)}
}

func (l *liveSet) beginInsert(in *insert) {
	l.mu.Lock()
	l.byVal[in.value] = in
	l.pos.add(in.slot, in.weight)
	l.enter.add(in.slot, in.weight)
	l.mu.Unlock()
}

func (l *liveSet) ackInsert(in *insert) {
	l.mu.Lock()
	l.def.add(in.slot, in.weight)
	l.mu.Unlock()
}

func (l *liveSet) beginDelete(in *insert) {
	l.mu.Lock()
	l.def.add(in.slot, -in.weight)
	l.left.add(in.slot, in.weight)
	l.mu.Unlock()
}

func (l *liveSet) ackDelete(in *insert) {
	l.mu.Lock()
	l.pos.add(in.slot, -in.weight)
	l.clock++
	in.delAck = l.clock
	l.mu.Unlock()
}

// window is what a read records about the live set: the clock at send
// and the inserted weight bounds over its range.
type window struct {
	seq            uint64
	def, pos       float64
	left0, enter0  float64
	left1, enter1  float64
	slotLo, slotHi int64
}

// begin is called just before a read over [lo, hi] is sent.
func (l *liveSet) begin(lo, hi int64) window {
	w := window{slotLo: lo, slotHi: hi}
	l.mu.Lock()
	l.clock++
	w.seq = l.clock
	w.def = l.def.rangeSum(lo, hi)
	w.pos = l.pos.rangeSum(lo, hi)
	w.left0 = l.left.rangeSum(lo, hi)
	w.enter0 = l.enter.rangeSum(lo, hi)
	l.mu.Unlock()
	return w
}

// end is called once the read's answer has arrived.
func (l *liveSet) end(w *window) {
	l.mu.Lock()
	w.left1 = l.left.rangeSum(w.slotLo, w.slotHi)
	w.enter1 = l.enter.rangeSum(w.slotLo, w.slotHi)
	l.mu.Unlock()
}

// check reports whether an inserted value may appear in a read sent at
// clock seq.
func (l *liveSet) check(v float64, seq uint64) error {
	l.mu.Lock()
	in, ok := l.byVal[v]
	var delAck uint64
	if ok {
		delAck = in.delAck
	}
	l.mu.Unlock()
	switch {
	case !ok:
		return fmt.Errorf("draw %v was never inserted", v)
	case delAck != 0 && delAck < seq:
		return fmt.Errorf("draw %v was deleted before the read was sent", v)
	}
	return nil
}

// rankAcc pools observed and expected rank-bin counts of seeded draws.
type rankAcc struct {
	obs [rankBins]float64
	exp [rankBins]float64
}

// shareAcc pools the count of draws landing on inserts against the
// expected count's lower and upper bounds and its variance.
type shareAcc struct {
	obs, expLo, expHi, variance float64
}

// accum holds one connection's statistics; accums merge at the end.
type accum struct {
	rank  [numPos]rankAcc
	share [numPos]shareAcc
}

func (a *accum) merge(b *accum) {
	for p := range a.rank {
		for i := range a.rank[p].obs {
			a.rank[p].obs[i] += b.rank[p].obs[i]
			a.rank[p].exp[i] += b.rank[p].exp[i]
		}
		a.share[p].obs += b.share[p].obs
		a.share[p].expLo += b.share[p].expLo
		a.share[p].expHi += b.share[p].expHi
		a.share[p].variance += b.share[p].variance
	}
}

// oracle checks read answers against the dataset definition.
type oracle struct {
	n    int64
	live *liveSet // nil for read-only workloads
}

// check validates one answer to read q and folds it into acc. win is
// the live-set window recorded around the read (zero without churn).
// sc is scratch space for the duplicate check.
func (o *oracle) check(q op, out []float64, win *window, acc *accum, sc *[]float64) error {
	if len(out) != q.k {
		return fmt.Errorf("wrong number of draws: %d, want %d", len(out), q.k)
	}
	lo, hi := float64(q.lo), float64(q.hi)
	for _, v := range out {
		if !(v >= lo && v <= hi) {
			return fmt.Errorf("draw %v outside [%v, %v]", v, lo, hi)
		}
		if v == math.Trunc(v) {
			if v < 0 || v >= float64(o.n) {
				return fmt.Errorf("draw %v is not in the dataset", v)
			}
			continue
		}
		if o.live == nil {
			return fmt.Errorf("draw %v is not in the dataset", v)
		}
		if err := o.live.check(v, win.seq); err != nil {
			return err
		}
	}
	if q.wor {
		s := append((*sc)[:0], out...)
		slices.Sort(s)
		for i := 1; i < len(s); i++ {
			if s[i] == s[i-1] {
				return fmt.Errorf("WoR answer repeats %v", s[i])
			}
		}
		*sc = s
	}
	if q.k == 0 {
		return nil
	}
	m := q.hi - q.lo + 1
	var probs [rankBins]float64
	for b := int64(0); b < rankBins; b++ {
		size := ceilDiv((b+1)*m, rankBins) - ceilDiv(b*m, rankBins)
		probs[b] = float64(size) / float64(m)
	}
	seeded := func(p int, v float64) bool {
		if v != math.Trunc(v) {
			return false
		}
		r := &acc.rank[p]
		r.obs[(int64(v)-q.lo)*rankBins/m]++
		return true
	}
	var hits [numPos]float64 // seeded draws per position class
	if seeded(posFirst, out[0]) {
		hits[posFirst] = 1
	}
	if seeded(posLast, out[len(out)-1]) {
		hits[posLast] = 1
	}
	for _, v := range out {
		if seeded(posAll, v) {
			hits[posAll]++
		}
	}
	for p := range hits {
		for b := range probs {
			acc.rank[p].exp[b] += hits[p] * probs[b]
		}
	}
	if o.live == nil || q.wor {
		return nil
	}
	// Inserted weight in range lies in [wLo, wHi] throughout the read.
	wLo := math.Max(0, win.def-(win.left1-win.left0))
	wHi := win.pos + (win.enter1 - win.enter0)
	pLo, pHi := wLo/(float64(m)+wLo), wHi/(float64(m)+wHi)
	pv := math.Max(pLo*(1-pLo), pHi*(1-pHi))
	if pLo <= 0.5 && pHi >= 0.5 {
		pv = 0.25
	}
	draws := [numPos]float64{1, 1, float64(len(out))}
	for p := range draws {
		sh := &acc.share[p]
		sh.obs += draws[p] - hits[p]
		sh.expLo += draws[p] * pLo
		sh.expHi += draws[p] * pHi
		sh.variance += draws[p] * pv
	}
	return nil
}

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

// verdict runs the pooled statistical tests. positional selects the
// first- and last-draw tests in addition to the all-draw test: the
// served API promises exchangeable output order, the lower layers a
// correct multiset only. It returns one error per failed test.
func verdict(acc *accum, positional bool) []error {
	var errs []error
	for p := 0; p < numPos; p++ {
		if p != posAll && !positional {
			continue
		}
		r := &acc.rank[p]
		total := 0.0
		for _, e := range r.exp {
			total += e
		}
		if total < 5*rankBins {
			continue // too few seeded draws for the test to mean anything
		}
		stat := 0.0
		for b := range r.obs {
			d := r.obs[b] - r.exp[b]
			stat += d * d / r.exp[b]
		}
		if pval := chi2Survival(stat, rankBins-1); pval < alpha {
			errs = append(errs, fmt.Errorf("rank uniformity, %s: chi2 %.1f over %d bins, p %.2g < %g",
				posNames[p], stat, rankBins, pval, alpha))
		}
		sh := &acc.share[p]
		if sh.variance == 0 {
			continue
		}
		sd := math.Sqrt(sh.variance)
		if sh.obs < sh.expLo-zAlpha*sd || sh.obs > sh.expHi+zAlpha*sd {
			errs = append(errs, fmt.Errorf("inserted share, %s: %.0f draws on inserts, expected %.1f..%.1f (sd %.1f)",
				posNames[p], sh.obs, sh.expLo, sh.expHi, sd))
		}
	}
	return errs
}

// chi2Survival returns P(X > x) for X chi-squared with df degrees of
// freedom: the regularized upper incomplete gamma Q(df/2, x/2).
func chi2Survival(x float64, df int) float64 {
	if x <= 0 {
		return 1
	}
	return gammaQ(float64(df)/2, x/2)
}

// gammaQ is the regularized upper incomplete gamma function, by the
// power series below a+1 and the Lentz continued fraction above.
func gammaQ(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	front := math.Exp(a*math.Log(x) - x - lg)
	if x < a+1 {
		sum, term := 1/a, 1/a
		for n := 1; n < 1000; n++ {
			term *= x / (a + float64(n))
			sum += term
			if math.Abs(term) < math.Abs(sum)*1e-15 {
				break
			}
		}
		return 1 - sum*front
	}
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i < 1000; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	return front * h
}
