package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	var g Gauge
	g.Set(2.5)
	g.add(-1)
	if got := g.value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestHistObserveAndSnapshot(t *testing.T) {
	h := newHist(0, 10, 10)
	for _, x := range []float64{-1, 0, 0.5, 5, 9.999, 10, 42} {
		h.Observe(x)
	}
	s := h.Snapshot()
	if s.Count != 7 {
		t.Fatalf("count = %d, want 7", s.Count)
	}
	if s.Under != 1 || s.Over != 2 {
		t.Fatalf("under/over = %d/%d, want 1/2", s.Under, s.Over)
	}
	if s.Buckets[0] != 2 { // 0 and 0.5
		t.Fatalf("bucket0 = %d, want 2", s.Buckets[0])
	}
	if s.Buckets[5] != 1 || s.Buckets[9] != 1 {
		t.Fatalf("buckets = %v", s.Buckets)
	}
	wantSum := -1 + 0 + 0.5 + 5 + 9.999 + 10 + 42
	if math.Abs(s.Sum-wantSum) > 1e-9 {
		t.Fatalf("sum = %v, want %v", s.Sum, wantSum)
	}
	if mean := s.Mean(); math.Abs(mean-wantSum/7) > 1e-9 {
		t.Fatalf("mean = %v", mean)
	}
}

func TestHistQuantile(t *testing.T) {
	h := newHist(0, 100, 100)
	for i := 0; i < 100; i++ {
		h.Observe(float64(i) + 0.5)
	}
	s := h.Snapshot()
	if p50 := s.Quantile(0.5); math.Abs(p50-50) > 1.5 {
		t.Fatalf("p50 = %v, want ~50", p50)
	}
	if p99 := s.Quantile(0.99); math.Abs(p99-99) > 1.5 {
		t.Fatalf("p99 = %v, want ~99", p99)
	}
	empty := newHist(2, 4, 2).Snapshot()
	if q := empty.Quantile(0.5); q != 2 {
		t.Fatalf("empty quantile = %v, want lo", q)
	}
}

func TestHistMerge(t *testing.T) {
	a := newHist(0, 10, 5)
	b := newHist(0, 10, 5)
	a.Observe(1)
	a.Observe(11) // over
	b.Observe(1)
	b.Observe(-1) // under
	sa, sb := a.Snapshot(), b.Snapshot()
	if err := sa.merge(sb); err != nil {
		t.Fatal(err)
	}
	if sa.Count != 4 || sa.Under != 1 || sa.Over != 1 || sa.Buckets[0] != 2 {
		t.Fatalf("merged = %+v", sa)
	}
	mismatched := newHist(0, 5, 5).Snapshot()
	if err := sa.merge(mismatched); err == nil {
		t.Fatal("merging mismatched shapes succeeded")
	}
}

func TestStat(t *testing.T) {
	var s Stat
	for _, x := range []float64{1, 2, 3, 4} {
		s.Observe(x)
	}
	snap := s.snapshot()
	if snap.N != 4 || math.Abs(snap.Mean-2.5) > 1e-12 {
		t.Fatalf("stat = %+v", snap)
	}
	if snap.Std <= 0 {
		t.Fatalf("std = %v, want > 0", snap.Std)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Fatal("counter identity lost across lookups")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("gauge identity lost across lookups")
	}
	h := r.Histogram("h", 0, 1, 10)
	if r.Histogram("h", 0, 99, 3) != h {
		t.Fatal("histogram identity lost across lookups")
	}
	if len(h.Snapshot().Buckets) != 10 {
		t.Fatal("second lookup changed histogram shape")
	}
	if r.Stat("s") != r.Stat("s") {
		t.Fatal("stat identity lost across lookups")
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Inc()
				r.Gauge("g").add(1)
				r.Histogram("h", 0, 1, 4).Observe(0.5)
				r.Stat("s").Observe(1)
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counters["c"] != 8000 {
		t.Fatalf("counter = %d, want 8000", s.Counters["c"])
	}
	if s.Gauges["g"] != 8000 {
		t.Fatalf("gauge = %v, want 8000", s.Gauges["g"])
	}
	if s.Histograms["h"].Count != 8000 {
		t.Fatalf("hist count = %d, want 8000", s.Histograms["h"].Count)
	}
	if s.Stats["s"].N != 8000 {
		t.Fatalf("stat n = %d, want 8000", s.Stats["s"].N)
	}
}

func TestSnapshotMerge(t *testing.T) {
	r1, r2 := NewRegistry(), NewRegistry()
	r1.Counter("jobs").Add(3)
	r2.Counter("jobs").Add(4)
	r2.Counter("only2").Inc()
	r1.Gauge("level").Set(1)
	r2.Gauge("level").Set(2)
	r1.Histogram("lat", 0, 1, 4).Observe(0.1)
	r2.Histogram("lat", 0, 1, 4).Observe(0.9)
	r1.Stat("st").Observe(1)
	r2.Stat("st").Observe(3)

	s := r1.Snapshot()
	if err := s.Merge(r2.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if s.Counters["jobs"] != 7 || s.Counters["only2"] != 1 {
		t.Fatalf("counters = %v", s.Counters)
	}
	if s.Gauges["level"] != 2 {
		t.Fatalf("gauge = %v, want 2 (last write wins)", s.Gauges["level"])
	}
	if s.Histograms["lat"].Count != 2 {
		t.Fatalf("hist count = %d, want 2", s.Histograms["lat"].Count)
	}
	if st := s.Stats["st"]; st.N != 2 || math.Abs(st.Mean-2) > 1e-12 {
		t.Fatalf("stat = %+v", st)
	}
	// Merge into an empty snapshot.
	var empty Snapshot
	if err := empty.Merge(s); err != nil {
		t.Fatal(err)
	}
	if empty.Counters["jobs"] != 7 {
		t.Fatalf("empty-merge counters = %v", empty.Counters)
	}
}

func TestWriteJSONAndTable(t *testing.T) {
	r := NewRegistry()
	r.Counter("admitted").Add(12)
	r.Gauge("area").Set(3.5)
	r.Histogram("lat", 0, 1, 4).Observe(0.25)
	r.Stat("quality").Observe(0.8)

	var buf bytes.Buffer
	if err := r.writeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("WriteJSON output not parseable: %v", err)
	}
	if snap.Counters["admitted"] != 12 || snap.Gauges["area"] != 3.5 {
		t.Fatalf("round-trip = %+v", snap)
	}

	buf.Reset()
	if err := r.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"metric", "admitted", "counter", "12", "area", "gauge", "lat", "histogram", "quality", "stat"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestNewHistPanicsOnBadShape(t *testing.T) {
	for _, tc := range []struct {
		lo, hi float64
		n      int
	}{{0, 1, 0}, {1, 1, 4}, {2, 1, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHist(%v,%v,%d) did not panic", tc.lo, tc.hi, tc.n)
				}
			}()
			newHist(tc.lo, tc.hi, tc.n)
		}()
	}
}
