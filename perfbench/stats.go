package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of xs,
// leaving xs as it was. It returns 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)]
}

// hdQuantile is the Harrell-Davis estimate of the p-quantile of xs: a
// weighted mean of all order statistics, with Beta((n+1)p, (n+1)(1-p))
// weights. Unlike one order statistic it moves smoothly when the samples
// do, so a quantile that falls between two groups of unlike joins does not
// jump from one group to the other between runs.
func hdQuantile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	a, b := float64(n+1)*p, float64(n+1)*(1-p)
	var q, prev float64
	for i, x := range s {
		cur := betaInc(a, b, float64(i+1)/float64(n))
		q += (cur - prev) * x
		prev = cur
	}
	return q
}

// betaInc is the regularized incomplete beta function I_x(a, b), by the
// continued fraction of Numerical Recipes §6.4.
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1; m <= 300; m++ {
		fm := float64(m)
		num := fm * (b - fm) * x / ((a + 2*fm - 1) * (a + 2*fm))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		num = -(a + fm) * (a + b + fm) * x / ((a + 2*fm) * (a + 2*fm + 1))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		step := d * c
		h *= step
		if math.Abs(step-1) < 1e-14 {
			break
		}
	}
	return h
}

// rank is the 0-based index of the nearest-rank p-quantile of n samples.
func rank(n int, p float64) int {
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// beyond is the number of samples above the nearest-rank p-quantile of n.
func beyond(n int, p float64) int { return n - 1 - rank(n, p) }

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to be more than the few largest samples.
const minBeyond = 10

// tailLadder lists the percentiles a tail report may fall back to.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// highestTail returns the highest percentile of tailLadder that leaves at
// least minBeyond of n samples beyond it, or 0 when none does.
func highestTail(n int) float64 {
	for _, p := range tailLadder {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// tailNote states the sample count behind a tail percentile and whether it
// meets the ≥minBeyond rule, for the run's log.
func tailNote(name string, n int, p float64) string {
	b := beyond(n, p)
	if b >= minBeyond {
		return fmt.Sprintf("%s: %d samples, %d beyond p%g", name, n, b, p*100)
	}
	return fmt.Sprintf("%s: %d samples, only %d beyond p%g (the rule holds up to p%g)", name, n, b, p*100, highestTail(n)*100)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// pointMedian takes join times recorded in rounds of points joins each, in
// the same point order every round, and returns each point's median time
// in milliseconds. Every round repeats the same cold join with the same
// counts; the median keeps the garbage collections a typical round pays
// for, while one round slowed by the machine does not move it. Percentiles
// over the mix are taken over these per-point figures: a percentile of the
// raw times can fall on a jump between two groups of points, where it
// equals one round's extreme.
func pointMedian(ds []time.Duration, points int) []float64 {
	out := make([]float64, points)
	for p := range out {
		var xs []float64
		for i := p; i < len(ds); i += points {
			xs = append(xs, ms(ds[i]))
		}
		out[p] = percentile(xs, 0.5)
	}
	return out
}

// tailChunk is the number of consecutive requests one chunked tail is
// taken over. The median of the maxima of 100 samples estimates the
// 99.3rd percentile (F^100 = 1/2).
const tailChunk = 100

// chunked splits xs, in arrival order, into consecutive chunks of size
// samples (the remainder joins the last chunk), takes the p-quantile of
// each chunk, and returns the over-quantile of those.
func chunked(xs []float64, size int, p, over float64) float64 {
	if len(xs) <= size {
		return percentile(xs, p)
	}
	var qs []float64
	n := len(xs) / size
	for c := 0; c < n; c++ {
		end := (c + 1) * size
		if c == n-1 {
			end = len(xs)
		}
		qs = append(qs, percentile(xs[c*size:end], p))
	}
	return percentile(qs, over)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metricName and metricUnit are the charsets of the benchmark's result
// format.
var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// e2eMetrics and layerMetrics are the metric sets a run reports with
// --trace 0 and --trace 1; BENCHMARK.json declares the same names, and
// bounds the first set.
var (
	e2eMetrics = []string{
		"setup_s", "heap_mb", "space_amp", "success_frac",
		"join_ms_p50", "join_ms_p90", "noindex_join_ms_p50", "bplus_join_ms_p50",
		"probe_us_p50", "probe_us_p99", "probes_per_s",
		"read_ms_p50",
	}
	layerMetrics = []string{
		"pagefile.reads_per_join", "pagefile.read_calls_per_join", "pagefile.writes_per_insert",
		"bufferpool.hit_ratio", "bufferpool.probe_hit_ratio", "bufferpool.fetches_per_join",
		"bufferpool.evictions_per_join", "bufferpool.fetches_per_probe",
		"core.node_reads_per_join", "core.stab_page_reads_per_join", "core.probe_ms_per_join",
		"core.find_ancestors_us_p50", "core.find_descendants_us_p50", "core.node_reads_per_probe",
		"join.self_ms_p50", "join.elements_scanned_per_join", "join.anc_probes_per_join", "join.alloc_bytes_per_join",
		"wal.fsyncs_per_commit", "wal.max_group", "wal.bytes_per_insert",
		"server.read_overhead_ms_p50", "server.insert_ms_p50", "server.queue_wait_ms_p99", "server.rejected",
		"loadgen.late_ms_p99", "bench.trace_overhead_frac",
		// Serving tails and write latency: end-to-end figures, but they
		// spread 0.23-0.79 between runs on a shared two-core machine with a
		// shared disk, beyond any bound a gate can hold.
		"read_ms_p99", "write_ms_p50", "write_ms_p99",
	}
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet is a run's reported metric set.
type metricSet map[string]metric

// set records a metric, rejecting names and units outside the charset and
// values that are not finite numbers.
func (m metricSet) set(name, unit string, v float64) error {
	if !metricName.MatchString(name) {
		return fmt.Errorf("metric name %q outside the charset", name)
	}
	if !metricUnit.MatchString(unit) {
		return fmt.Errorf("metric %s: unit %q outside the charset", name, unit)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("metric %s: value %v is not a finite number", name, v)
	}
	if _, dup := m[name]; dup {
		return fmt.Errorf("metric %s reported twice", name)
	}
	m[name] = metric{Value: v, Unit: unit}
	return nil
}

// complete reports an error unless m holds exactly the named metrics.
func (m metricSet) complete(names []string) error {
	for _, n := range names {
		if _, ok := m[n]; !ok {
			return fmt.Errorf("metric %s not reported", n)
		}
	}
	if len(m) != len(names) {
		return fmt.Errorf("%d metrics reported, %d declared", len(m), len(names))
	}
	return nil
}
