package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
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
	var h Hist
	for _, d := range []time.Duration{-1, 255, 256, 287, 288, 1000, 1<<33 - 1, 1 << 33, 42 << 40} {
		h.Observe(d)
	}
	s := h.Snapshot()
	if s.Count != 9 {
		t.Fatalf("count = %d, want 9", s.Count)
	}
	if s.Under != 2 || s.Over != 2 {
		t.Fatalf("under/over = %d/%d, want 2/2", s.Under, s.Over)
	}
	// 256 and 287 fall in [256, 288), 288 in [288, 320); 1000 is in
	// octave 9 ([512, 1024)), sub-bucket (1000-512)/64 = 7.
	if s.Buckets[0] != 2 || s.Buckets[1] != 1 || s.Buckets[histSub+7] != 1 || s.Buckets[histBuckets-1] != 1 {
		t.Fatalf("buckets = %v", s.Buckets)
	}
	var want int64
	for _, d := range []int64{-1, 255, 256, 287, 288, 1000, 1<<33 - 1, 1 << 33, 42 << 40} {
		want += d
	}
	if s.Sum != want {
		t.Fatalf("sum = %d, want %d", s.Sum, want)
	}
	if mean := s.Mean(); mean != float64(want)/9 {
		t.Fatalf("mean = %v", mean)
	}
}

// The integer index must land every duration in the bucket whose edges
// bracket it.
func TestHistIndexMatchesBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		d := histLo + rng.Int63n(histHi-histLo)
		if i < histBuckets {
			d = int64(histBounds[i]) - 1 // the last ns of each bucket
		}
		var h Hist
		h.Observe(time.Duration(d))
		s := h.Snapshot()
		for b, c := range s.Buckets {
			if c == 0 {
				continue
			}
			if lo, hi := s.bucketLower(b), s.Bounds[b]; float64(d) < lo || float64(d) >= hi {
				t.Fatalf("%d ns counted in bucket %d = [%v, %v)", d, b, lo, hi)
			}
		}
	}
}

func TestHistQuantile(t *testing.T) {
	var h Hist
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	s := h.Snapshot()
	// Buckets are at most 12.5 % wide, so the interpolated quantile is
	// within that of the exact one.
	if p50 := s.Quantile(0.5); math.Abs(p50-50e3) > 0.125*50e3 {
		t.Fatalf("p50 = %v, want ~50us", p50)
	}
	if p99 := s.Quantile(0.99); math.Abs(p99-99e3) > 0.125*99e3 {
		t.Fatalf("p99 = %v, want ~99us", p99)
	}
	var empty Hist
	if q := empty.Snapshot().Quantile(0.5); q != float64(histLo) {
		t.Fatalf("empty quantile = %v, want lo", q)
	}
}

func TestHistMerge(t *testing.T) {
	var a, b Hist
	a.Observe(time.Microsecond)
	a.Observe(time.Minute) // over
	b.Observe(time.Microsecond)
	b.Observe(time.Nanosecond) // under
	sa, sb := a.Snapshot(), b.Snapshot()
	if err := sa.merge(sb); err != nil {
		t.Fatal(err)
	}
	if sa.Count != 4 || sa.Under != 1 || sa.Over != 1 || sa.Sum != int64(2*time.Microsecond+time.Minute+time.Nanosecond) {
		t.Fatalf("merged = %+v", sa)
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
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatal("histogram identity lost across lookups")
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
				r.Histogram("h").Observe(time.Microsecond)
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
	if h := s.Histograms["h"]; h.Sum != int64(8000*time.Microsecond) {
		t.Fatalf("hist sum = %d, want %d", h.Sum, int64(8000*time.Microsecond))
	}
}

func TestSnapshotMerge(t *testing.T) {
	r1, r2 := NewRegistry(), NewRegistry()
	r1.Counter("jobs").Add(3)
	r2.Counter("jobs").Add(4)
	r2.Counter("only2").Inc()
	r1.Gauge("level").Set(1)
	r2.Gauge("level").Set(2)
	r1.Histogram("lat").Observe(time.Microsecond)
	r2.Histogram("lat").Observe(time.Millisecond)

	s := r1.Snapshot()
	if err := s.Merge(r2.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if s.Counters["jobs"] != 7 || s.Counters["only2"] != 1 {
		t.Fatalf("counters = %v", s.Counters)
	}
	if s.Gauges != nil {
		t.Fatalf("gauges = %v, want none: a level does not add across nodes", s.Gauges)
	}
	if s.Histograms["lat"].Count != 2 {
		t.Fatalf("hist count = %d, want 2", s.Histograms["lat"].Count)
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
	r.Histogram("lat").Observe(250 * time.Microsecond)

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
	for _, want := range []string{"metric", "admitted", "counter", "12", "area", "gauge", "lat", "histogram"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}
