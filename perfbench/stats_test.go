package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.2, 1}, {0.5, 3}, {0.6, 3}, {0.61, 4}, {0.99, 5}, {1, 5}} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("p%g = %v, want %v", c.p*100, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
}

// The tail rule: a reported percentile needs at least ten samples beyond
// it.
func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{{1000, 0.99, 10}, {999, 0.99, 9}, {100, 0.9, 10}, {99, 0.9, 9}, {20, 0.5, 10}, {1, 0.5, 0}} {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, %g) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{10000, 0.999}, {9999, 0.99}, {1000, 0.99}, {999, 0.95}, {200, 0.95}, {100, 0.9}, {40, 0.75}, {20, 0.5}, {19, 0}} {
		if got := highestTail(c.n); got != c.want {
			t.Errorf("highestTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPointMedian(t *testing.T) {
	ms := time.Millisecond
	// Two points, three rounds; one round of point 0 was slowed down.
	ds := []time.Duration{1 * ms, 10 * ms, 9 * ms, 11 * ms, 2 * ms, 12 * ms}
	got := pointMedian(ds, 2)
	if got[0] != 2 || got[1] != 11 {
		t.Errorf("pointMedian = %v, want [2 11]", got)
	}
}

func TestMetricCharset(t *testing.T) {
	m := metricSet{}
	for _, ok := range []string{"setup_s", "join.self_ms_p50", "bufferpool.hit_ratio", "9lives", "a-b"} {
		if err := m.set(ok, "ms", 1); err != nil {
			t.Errorf("name %q refused: %v", ok, err)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "has space", "x/y", "µs", "a23456789012345678901234567890123456789012345678901234567890abcde"} {
		if err := m.set(bad, "ms", 1); err == nil {
			t.Errorf("name %q accepted", bad)
		}
	}
	for i, ok := range []string{"ms", "s", "1/s", "count", "%", "x", "frac"} {
		if err := m.set(fmt.Sprint("unit", i), ok, 1); err != nil {
			t.Errorf("unit %q refused: %v", ok, err)
		}
	}
	for _, bad := range []string{"", "m s", "µs", "a234567890123456x"} {
		if err := m.set("bad_unit", bad, 1); err == nil {
			t.Errorf("unit %q accepted", bad)
		}
	}
	if err := m.set("setup_s", "s", 2); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := m.set("nan", "s", math.NaN()); err == nil {
		t.Error("NaN accepted")
	}
	if err := m.set("inf", "s", math.Inf(1)); err == nil {
		t.Error("Inf accepted")
	}
}

func TestChunked(t *testing.T) {
	// Three chunks of four; one holds a stall.
	xs := []float64{1, 2, 3, 4, 1, 2, 100, 200, 1, 2, 3, 5}
	if got := chunked(xs, 4, 0.99, 0.5); got != 5 {
		t.Errorf("chunked = %v, want the median chunk tail 5", got)
	}
	// The remainder joins the last chunk.
	if got := chunked([]float64{1, 2, 3, 9, 8, 7, 6}, 2, 0.99, 0.5); got != 8 {
		t.Errorf("chunked with remainder = %v, want 8", got)
	}
	if got := chunked([]float64{3, 1, 2}, 10, 0.5, 0.5); got != 2 {
		t.Errorf("chunked of one short chunk = %v, want 2", got)
	}
}

// The metric sets a run reports are the ones BENCHMARK.json declares.
func TestDeclaredMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		declared []struct{ Name, Unit string }
		reported []string
	}{{decl.EndToEnd, e2eMetrics}, {decl.PerLayer, layerMetrics}} {
		m := metricSet{}
		for _, d := range c.declared {
			if err := m.set(d.Name, d.Unit, 1); err != nil {
				t.Error(err)
			}
		}
		if err := m.complete(c.reported); err != nil {
			t.Error(err)
		}
	}
}

func TestBetaInc(t *testing.T) {
	for _, c := range []struct{ a, b, x, want float64 }{
		{1, 1, 0.3, 0.3},
		{2, 2, 0.5, 0.5},
		{1, 3, 0.2, 1 - 0.8*0.8*0.8},
		{3, 1, 0.7, 0.7 * 0.7 * 0.7},
		{16.5, 16.5, 0.5, 0.5},
		{29.7, 3.3, 1, 1},
		{29.7, 3.3, 0, 0},
	} {
		if got := betaInc(c.a, c.b, c.x); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("I_%g(%g, %g) = %v, want %v", c.x, c.a, c.b, got, c.want)
		}
	}
}

func TestHDQuantile(t *testing.T) {
	// Symmetric samples: the median estimate is the centre.
	xs := []float64{5, 1, 4, 2, 3, 7, 6}
	if got := hdQuantile(xs, 0.5); math.Abs(got-4) > 1e-9 {
		t.Errorf("HD median = %v, want 4", got)
	}
	if xs[0] != 5 {
		t.Error("hdQuantile reordered its input")
	}
	// Two groups with the median between them: moving one sample near the
	// middle moves the estimate a little, not from group to group.
	lo := []float64{1, 1.1, 1.2, 1.3, 3.9, 4, 4.1, 4.2}
	hi := append([]float64(nil), lo...)
	hi[3] = 1.5
	a, b := hdQuantile(lo, 0.5), hdQuantile(hi, 0.5)
	if b < a || b-a > 0.1 {
		t.Errorf("HD median moved from %v to %v", a, b)
	}
	if got := hdQuantile([]float64{2}, 0.9); got != 2 {
		t.Errorf("HD of one sample = %v, want 2", got)
	}
}
