package main

import (
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
)

// uniformRead draws k uniform integers from [lo, hi], the answer a
// correct server gives on the seeded dataset.
func uniformRead(r *rand.Rand, q op) []float64 {
	out := make([]float64, q.k)
	for i := range out {
		out[i] = float64(q.lo + r.Int64N(q.hi-q.lo+1))
	}
	return out
}

func read(lo, hi int64, k int) op { return op{kind: opRead, lo: lo, hi: hi, k: k} }

func checkOne(t *testing.T, o *oracle, q op, out []float64, win *window) error {
	t.Helper()
	var acc accum
	var sc []float64
	if win == nil {
		win = &window{}
	}
	return o.check(q, out, win, &acc, &sc)
}

func wantErr(t *testing.T, err error, substr string) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), substr) {
		t.Fatalf("got error %v, want one containing %q", err, substr)
	}
}

func TestOracleAcceptsCorrectAnswers(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	o := &oracle{n: 1000}
	var acc accum
	var sc []float64
	for i := 0; i < 20000; i++ {
		lo := r.Int64N(900)
		q := read(lo, lo+50+r.Int64N(1000-lo-50), 8)
		if err := o.check(q, uniformRead(r, q), &window{}, &acc, &sc); err != nil {
			t.Fatal(err)
		}
	}
	if errs := verdict(&acc, true); len(errs) > 0 {
		t.Fatalf("correct answers rejected: %v", errs)
	}
}

func TestOracleRejectsDrawOutsideRange(t *testing.T) {
	o := &oracle{n: 1000}
	wantErr(t, checkOne(t, o, read(100, 200, 3), []float64{150, 201, 120}, nil), "outside")
	wantErr(t, checkOne(t, o, read(100, 200, 3), []float64{99, 150, 120}, nil), "outside")
}

func TestOracleRejectsWrongCount(t *testing.T) {
	o := &oracle{n: 1000}
	wantErr(t, checkOne(t, o, read(100, 200, 3), []float64{150, 160}, nil), "wrong number")
}

func TestOracleRejectsWoRDuplicate(t *testing.T) {
	o := &oracle{n: 1000}
	q := read(100, 200, 4)
	q.wor = true
	if err := checkOne(t, o, q, []float64{150, 151, 152, 153}, nil); err != nil {
		t.Fatal(err)
	}
	wantErr(t, checkOne(t, o, q, []float64{150, 151, 150, 153}, nil), "repeats")
	// The same repeat is legal with replacement.
	if err := checkOne(t, o, read(100, 200, 4), []float64{150, 151, 150, 153}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestOracleRejectsGroupedOrder feeds answers whose multiset is right
// but whose order follows a chunked cover: the two partial edge chunks
// first, then the interior. out[0] then sits at the range edges, which
// only the per-position tests can see.
func TestOracleRejectsGroupedOrder(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	o := &oracle{n: 1 << 20}
	var acc accum
	var sc []float64
	const chunk = 64
	for i := 0; i < 20000; i++ {
		lo := r.Int64N(1<<19) + 7
		q := read(lo, lo+1000+r.Int64N(4000), 8)
		out := uniformRead(r, q)
		firstFull := (q.lo + chunk - 1) / chunk * chunk
		lastFull := (q.hi + 1) / chunk * chunk
		group := func(v float64) int {
			switch x := int64(v); {
			case x < firstFull:
				return 0
			case x >= lastFull:
				return 1
			}
			return 2
		}
		slices.SortStableFunc(out, func(a, b float64) int { return group(a) - group(b) })
		if err := o.check(q, out, &window{}, &acc, &sc); err != nil {
			t.Fatal(err)
		}
	}
	errs := verdict(&acc, true)
	if len(errs) == 0 {
		t.Fatal("grouped output order accepted")
	}
	for _, err := range errs {
		if strings.Contains(err.Error(), "all draws") {
			t.Fatalf("multiset test fired on a correct multiset: %v", err)
		}
	}
	if !strings.Contains(errs[0].Error(), "first draw") {
		t.Fatalf("want the first-draw test to fire, got %v", errs)
	}
	if len(verdict(&acc, false)) != 0 {
		t.Fatal("the all-draw test alone should accept a correct multiset")
	}
}

func churnOracle() (*oracle, *insert, *insert) {
	o := &oracle{n: 1000, live: newLiveSet(1000)}
	a := &insert{value: 150 + 1.0/(1<<fracBits), weight: 2, slot: 150}
	b := &insert{value: 160 + 2.0/(1<<fracBits), weight: 3, slot: 160}
	for _, in := range []*insert{a, b} {
		o.live.beginInsert(in)
		o.live.ackInsert(in)
	}
	return o, a, b
}

func TestOracleRejectsValueNeverInserted(t *testing.T) {
	o, a, _ := churnOracle()
	q := read(100, 200, 2)
	win := o.live.begin(q.lo, q.hi)
	o.live.end(&win)
	if err := checkOne(t, o, q, []float64{a.value, 120}, &win); err != nil {
		t.Fatal(err)
	}
	wantErr(t, checkOne(t, o, q, []float64{170.5, 120}, &win), "never inserted")
	// Read-only workloads hold no inserts at all.
	wantErr(t, checkOne(t, &oracle{n: 1000}, q, []float64{a.value, 120}, nil), "not in the dataset")
	wantErr(t, checkOne(t, &oracle{n: 100}, read(0, 200, 1), []float64{150}, nil), "not in the dataset")
}

func TestOracleRejectsValueDeletedBeforeRead(t *testing.T) {
	o, a, b := churnOracle()
	q := read(100, 200, 2)
	early := o.live.begin(q.lo, q.hi) // sent before the delete is acknowledged
	o.live.beginDelete(a)
	o.live.ackDelete(a)
	o.live.end(&early)
	late := o.live.begin(q.lo, q.hi)
	o.live.end(&late)
	if err := checkOne(t, o, q, []float64{a.value, b.value}, &early); err != nil {
		t.Fatalf("a read racing the delete may still see the value: %v", err)
	}
	wantErr(t, checkOne(t, o, q, []float64{a.value, b.value}, &late), "deleted before the read")
	if err := checkOne(t, o, q, []float64{b.value, 120}, &late); err != nil {
		t.Fatal(err)
	}
}

// TestOracleWeightProportion checks the inserted-share test: answers
// that draw inserts by weight pass, answers that ignore the weights
// (drawing each element uniformly) fail.
func TestOracleWeightProportion(t *testing.T) {
	for _, weighted := range []bool{true, false} {
		r := rand.New(rand.NewPCG(5, 6))
		o := &oracle{n: 1000, live: newLiveSet(1000)}
		var ins []*insert
		for j := int64(0); j < 999; j += 2 {
			in := &insert{value: float64(j) + float64(j+1)/(1<<fracBits), weight: 4, slot: j}
			o.live.beginInsert(in)
			o.live.ackInsert(in)
			ins = append(ins, in)
		}
		var acc accum
		var sc []float64
		for i := 0; i < 5000; i++ {
			q := read(0, 999, 8)
			win := o.live.begin(q.lo, q.hi)
			o.live.end(&win)
			out := make([]float64, q.k)
			for d := range out {
				// 1000 seeded of weight 1 and 500 inserts of weight 4:
				// inserts carry 2/3 of the weight but 1/3 of the elements.
				pIns := 2.0 / 3
				if !weighted {
					pIns = 1.0 / 3
				}
				if r.Float64() < pIns {
					out[d] = ins[r.IntN(len(ins))].value
				} else {
					out[d] = float64(r.Int64N(1000))
				}
			}
			if err := o.check(q, out, &win, &acc, &sc); err != nil {
				t.Fatal(err)
			}
		}
		errs := verdict(&acc, true)
		if weighted && len(errs) > 0 {
			t.Fatalf("weight-proportional answers rejected: %v", errs)
		}
		if !weighted && (len(errs) == 0 || !strings.Contains(errs[0].Error(), "inserted share")) {
			t.Fatalf("answers ignoring weights accepted: %v", errs)
		}
	}
}

func TestChi2Survival(t *testing.T) {
	// Reference values of the chi-squared upper tail.
	for _, c := range []struct {
		x    float64
		df   int
		want float64
	}{
		{15, 15, 0.4514},
		{30.578, 15, 0.01},
		{1, 1, 0.3173},
		{11.345, 3, 0.01},
	} {
		if got := chi2Survival(c.x, c.df); got < c.want*0.99 || got > c.want*1.01 {
			t.Errorf("chi2Survival(%v, %d) = %.5f, want %.4f", c.x, c.df, got, c.want)
		}
	}
}

func TestQuartilesMatchExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestGeneratorSendsOnlyValidOperations(t *testing.T) {
	for _, w := range workloads {
		g := newGenerator(w, 7, 1, 0)
		deleted := map[*insert]bool{}
		acked := map[*insert]bool{}
		for i := 0; i < 20000; i++ {
			q := g.next()
			switch q.kind {
			case opRead:
				if q.lo < 0 || q.hi >= int64(w.n) || q.hi < q.lo {
					t.Fatalf("%s: bad window [%d, %d]", w.name, q.lo, q.hi)
				}
				if q.wor && q.hi-q.lo+1 < int64(q.k) {
					t.Fatalf("%s: WoR window [%d, %d] holds fewer than k=%d values", w.name, q.lo, q.hi, q.k)
				}
			case opInsert:
				acked[q.ins] = true
			case opDelete:
				if !acked[q.ins] || deleted[q.ins] {
					t.Fatalf("%s: delete of an unacknowledged or deleted insert", w.name)
				}
				deleted[q.ins] = true
			}
			g.acked(q)
		}
	}
}

func TestQuietWindows(t *testing.T) {
	// Per-window steal 0, 5, 0, 9, 1, 7: four quiet windows of six.
	marks := []float64{0, 0, 5, 5, 14, 15, 22}
	if got, want := quietWindows(marks), []bool{true, false, true, false, true, false}; !slices.Equal(got, want) {
		t.Fatalf("quiet windows %v, want %v", got, want)
	}
	// Only one quiet window: keep the least-stolen half.
	marks = []float64{0, 9, 18, 18, 30, 42, 60}
	if got, want := quietWindows(marks), []bool{true, true, true, false, false, false}; !slices.Equal(got, want) {
		t.Fatalf("least-stolen half %v, want %v", got, want)
	}
}
