// Command perfbench is the repository's benchmark: cold structural joins,
// hot XR-tree probes, and HTTP reads beside durable inserts, driven from one
// process through each layer's public functions.
//
//	perfbench --workload nested|flat --seed N --seconds S --trace 0|1
//
// The workload names the corpus every phase runs on: employee/name, where
// employees nest, or paper/author, where nothing nests. Every run sets up
// the three phases on that corpus and cuts its time into slices; each
// slice runs the join, probe and serve phases in that order, each for a
// fixed share of the slice. So every run reports every metric. With
// --trace 0 the run reports the end-to-end metrics; with --trace 1 every
// phase runs once untraced and once with spans recorded around the calls
// into each layer, and the run reports the per-layer metrics and the
// tracing overhead.
// The last line of standard output is the result as one JSON object.
// METRICS.md maps each per-layer metric to the end-to-end metric it
// should move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"xrtree"
	"xrtree/internal/datagen"
	"xrtree/internal/xmldoc"
)

// workDir holds everything the benchmark writes; it lies inside the
// directory the benchmark runs from.
const workDir = ".bench_build"

// setupReps is how many times a run sets up; set-up time is their median.
const setupReps = 5

// phaseNames and phaseShare name the phases, in the order a slice runs
// them, and give each one's share of --seconds. The probe phase needs the
// least time: it completes hundreds of thousands of probes a second.
var (
	phaseNames = [3]string{"join", "probe", "serve"}
	phaseShare = [3]float64{0.4, 0.2, 0.4}
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the benchmark's output line.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// inputs is everything generated from the seed before set-up.
type inputs struct {
	points []joinPoint
	// The probed tree's elements, the regions FindDescendants probes, and
	// the elements at whose starts FindAncestors probes.
	probeSet, probeRegion, probeTarget []xmldoc.Element
	serve                              *serveInputs
}

func generate(s *spec, seed int64) (*inputs, error) {
	c, err := s.corpus(seed)
	if err != nil {
		return nil, err
	}
	doc, err := s.serveCorpus(seed)
	if err != nil {
		return nil, err
	}
	A, D := c.Doc.ElementsByTag(s.anc), c.Doc.ElementsByTag(s.desc)
	set := append(append([]xmldoc.Element(nil), A...), D...)
	sort.Slice(set, func(i, j int) bool { return set[i].Start < set[j].Start })
	return &inputs{
		points:      joinPoints([]datagen.Corpus{c}, seed),
		probeSet:    set,
		probeRegion: A,
		probeTarget: D,
		serve:       newServeInputs(doc, s.anc, s.desc, s.serveSel, seed),
	}, nil
}

// stack is one set-up of all three phases.
type stack struct {
	join  *joinCold
	probe *probeHot
	serve *serveMixed
}

func setUp(dir string, in *inputs) (*stack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &stack{}
	var err error
	if s.join, err = buildJoinCold(dir, in.points); err != nil {
		return nil, fmt.Errorf("join set-up: %w", err)
	}
	if s.probe, err = buildProbeHot(dir, in.probeSet, in.probeRegion, in.probeTarget); err != nil {
		s.close()
		return nil, fmt.Errorf("probe set-up: %w", err)
	}
	if s.serve, err = buildServeMixed(dir, in.serve); err != nil {
		s.close()
		return nil, fmt.Errorf("serve set-up: %w", err)
	}
	return s, nil
}

func (s *stack) close() error {
	var errs []error
	if s.serve != nil {
		errs = append(errs, s.serve.close())
	}
	if s.probe != nil {
		errs = append(errs, s.probe.close())
	}
	if s.join != nil {
		errs = append(errs, s.join.close())
	}
	return errors.Join(errs...)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "nested or flat")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	s := specNamed(*wl)
	if s == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		var names []string
		for _, s := range specs {
			names = append(names, s.name)
		}
		fmt.Fprintf(stderr, "perfbench: need --workload %s, --seconds ≥ 1, --trace 0|1\n", strings.Join(names, "|"))
		return 2
	}
	b := &bench{spec: s, seed: *seed, traced: *trace == 1, log: stderr, epoch: time.Now()}
	budget := time.Duration(*seconds) * time.Second
	for i := range b.share {
		b.share[i] = time.Duration(float64(budget) * phaseShare[i])
	}

	res, err := b.run()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// bench is one run of the benchmark.
type bench struct {
	spec   *spec
	seed   int64
	traced bool
	log    io.Writer
	epoch  time.Time
	share  [3]time.Duration // measured time per phase, in phaseNames order

	wrong     []string
	attempted int64
	failed    int64
	recs      []*recorder
	overheads [3]float64 // traced runs: per phase
}

func (b *bench) note(format string, args ...any) {
	fmt.Fprintf(b.log, "perfbench: "+format+"\n", args...)
}

func (b *bench) run() (*result, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	t0 := time.Now()
	in, err := generate(b.spec, b.seed)
	if err != nil {
		return nil, fmt.Errorf("generate inputs: %w", err)
	}
	b.note("inputs generated in %.2f s", time.Since(t0).Seconds())
	// heap_mb leaves out the generated inputs, which the program is
	// handed, not what it holds.
	var mem runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&mem)
	inputHeap := mem.HeapAlloc
	var setups []float64
	var st *stack
	for rep := 0; rep < setupReps; rep++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
			// Deleted files leave no dirty pages for the kernel to write
			// back while later phases fsync.
			if err := os.RemoveAll(filepath.Join(dir, fmt.Sprint(rep-1))); err != nil {
				return nil, err
			}
		}
		t0 = time.Now()
		st, err = setUp(filepath.Join(dir, fmt.Sprint(rep)), in)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	sort.Float64s(setups)
	// Write back what set-up left dirty, so background writeback of tens
	// of megabytes does not stall the serving phase's WAL fsyncs.
	for _, p := range []string{st.join.path, st.probe.path} {
		if err := syncFile(p); err != nil {
			return nil, err
		}
	}
	closed := false
	defer func() {
		if !closed {
			st.close()
		}
	}()
	runtime.GC()
	runtime.ReadMemStats(&mem)
	heapMB := (float64(mem.HeapAlloc) - float64(inputHeap)) / 1e6

	t0 = time.Now()
	if err := st.join.verify(); err != nil {
		b.wrong = append(b.wrong, "join set-up oracle: "+err.Error())
	}
	if err := st.probe.verify(b.seed); err != nil {
		b.wrong = append(b.wrong, "probe oracle: "+err.Error())
	}

	b.note("set-up %.2f s (median of %d), oracles %.2f s", setups[len(setups)/2], setupReps, time.Since(t0).Seconds())
	m := metricSet{}
	ph, err := b.runPhases(st, in.serve)
	if err != nil {
		return nil, err
	}
	jr, sr := ph.join[0], ph.serve[0]
	if b.traced {
		b.reportJoinLayers(ph.join, len(st.join.points), m)
		b.reportProbeLayers(ph.probe, m)
		b.reportServeLayers(ph, m)
	} else {
		b.reportJoin(jr, len(st.join.points), m)
		b.reportProbe(ph.probe[0], m)
		b.reportServe(sr, m)
	}
	acked := append(append([]xmldoc.Element(nil), sr.acked...), ph.serve[1].acked...)
	inserted := sr.insertedElems + ph.serve[1].insertedElems
	if err := st.serve.verifyFinal(in.serve, acked); err != nil {
		b.wrong = append(b.wrong, "serve final oracle: "+err.Error())
	}
	if err := b.repeatGuard(jr.counts); err != nil {
		b.wrong = append(b.wrong, err.Error())
	}
	elems := []int{st.join.elements, len(st.probe.set), st.serve.elements + int(inserted)}
	paths := []string{st.join.path, st.probe.path, st.serve.path}
	closed = true
	if err := st.close(); err != nil {
		return nil, fmt.Errorf("close stores: %w", err)
	}
	var bytes, indexed int64
	for i, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		bytes += fi.Size()
		indexed += int64(elems[i])
		b.note("%s store: %d elements, %d bytes", phaseNames[i], elems[i], fi.Size())
	}

	if !b.traced {
		for _, e := range []struct {
			name, unit string
			v          float64
		}{
			{"setup_s", "s", setups[len(setups)/2]},
			{"heap_mb", "MB", heapMB},
			{"space_amp", "x", float64(bytes) / float64(16*indexed)},
			{"success_frac", "frac", 1 - ratio(float64(b.failed), float64(b.attempted))},
		} {
			if err := m.set(e.name, e.unit, e.v); err != nil {
				return nil, err
			}
		}
	} else {
		if err := writeSpans(filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", b.spec.name, b.seed)), b.recs...); err != nil {
			return nil, err
		}
		worst := b.overheads[0]
		for i, o := range b.overheads {
			b.note("%s phase: tracing overhead %.3f", phaseNames[i], o)
			worst = max(worst, o)
		}
		must(m.set("bench.trace_overhead_frac", "frac", worst))
	}
	want := e2eMetrics
	if b.traced {
		want = layerMetrics
	}
	if err := m.complete(want); err != nil {
		return nil, err
	}
	for _, w := range b.wrong {
		b.note("WRONG: %s", w)
	}
	return &result{Correct: len(b.wrong) == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}, nil
}

// slices is how many slices a run's time is cut into. Each slice runs
// every phase for its share of the slice, so each phase's samples spread
// over the whole run: on a shared machine, speed drifts within seconds,
// and a phase measured in one stretch catches only part of that drift.
const slices = 5

// phases holds a run's results per phase, untraced ([0]) and traced ([1]),
// merged over the slices.
type phases struct {
	join  [2]*joinRun
	probe [2]*probeRun
	serve [2]*serveRun

	// Traced serving only: log and file deltas, and cumulative figures
	// at the end of the run.
	walCommits, walFsyncs, walBytes, fileWrites int64
	walMaxGroup, rejected                       int64
	queueWaitP99                                float64
}

// runPhases runs every phase in every slice: untraced, and then traced in
// a traced benchmark run, each for half the phase's share of the slice.
func (b *bench) runPhases(st *stack, in *serveInputs) (*phases, error) {
	runs := []bool{false}
	if b.traced {
		runs = []bool{false, true}
	}
	per := func(phase int) time.Duration {
		return b.share[phase] / time.Duration(slices*len(runs))
	}
	ph := &phases{}
	for k := range runs {
		ph.join[k] = &joinRun{wall: map[xrtree.Algorithm][]time.Duration{}}
		ph.probe[k] = &probeRun{}
		ph.serve[k] = &serveRun{}
	}
	var rec *recorder
	if b.traced {
		rec = newRecorder(b.epoch, 1<<50)
		b.recs = append(b.recs, rec)
	}
	// Each phase starts after a collection, so it does not pay for the
	// garbage of the phase before it: the probe phase allocates a result
	// slice per probe, hundreds of thousands per second.
	for slice := 0; slice < slices; slice++ {
		runtime.GC()
		for k, traced := range runs {
			var jrec *recorder
			if traced {
				jrec = rec
			}
			r, err := st.join.run(per(0), jrec)
			if err != nil {
				return nil, err
			}
			b.count(int64(r.attempted), int64(r.failed), r.wrong)
			if !ph.join[k].absorb(r) || !equalCounts(ph.join[0].counts, r.counts) {
				b.wrong = append(b.wrong, "join: per-join counts differ between rounds of the run")
			}
		}
		runtime.GC()
		for k, traced := range runs {
			r := st.probe.run(subSeed(b.seed, 7, slice*2+k), per(1), b.epoch, traced)
			b.count(r.probes, r.failed, nil)
			b.recs = append(b.recs, r.recs...)
			ph.probe[k].absorb(r)
		}
		runtime.GC()
		for k, traced := range runs {
			n := int(serveRate * per(2).Seconds())
			if n < 1 {
				n = 1
			}
			reqs, err := in.schedule(n)
			if err != nil {
				return nil, err
			}
			wal0, _ := st.serve.store.WALStats()
			file0 := st.serve.store.FileStats()
			r := st.serve.run(in, reqs, evenDues(n, serveRate), b.epoch, traced)
			wal1, _ := st.serve.store.WALStats()
			file1 := st.serve.store.FileStats()
			b.count(int64(r.attempted), int64(r.failed), r.wrong)
			b.recs = append(b.recs, r.recs...)
			in.basePairs += r.ackedPairs
			ph.serve[k].absorb(r)
			if traced {
				ph.walCommits += wal1.Commits - wal0.Commits
				ph.walFsyncs += wal1.Fsyncs - wal0.Fsyncs
				ph.walBytes += wal1.Bytes - wal0.Bytes
				ph.fileWrites += file1.PhysicalWrites - file0.PhysicalWrites
			}
		}
	}
	if !b.traced {
		ph.serve[1] = &serveRun{}
		return ph, nil
	}
	w, _ := st.serve.store.WALStats()
	snap := st.serve.srv.Metrics().Snapshot(0, 0)
	ph.walMaxGroup, ph.rejected, ph.queueWaitP99 = w.MaxGroup, snap.Rejected, snap.QueueWait.P99MS
	return ph, nil
}

func (b *bench) count(attempted, failed int64, wrong []string) {
	b.attempted += attempted
	b.failed += failed
	b.wrong = append(b.wrong, wrong...)
}

// overhead records a phase's tracing overhead: the traced half's median
// latency over the untraced half's, minus one. The run reports the
// largest.
func (b *bench) overhead(phase int, untraced, traced []float64) {
	b.overheads[phase] = ratio(percentile(traced, 0.5), percentile(untraced, 0.5)) - 1
}

func (b *bench) reportJoin(r *joinRun, np int, m metricSet) {
	xr := pointMedian(r.wall[xrtree.AlgXRStack], np)
	b.note("join: %d rounds of %d joins; join_ms_p90 over the median times of %d points, %d points beyond", r.rounds, len(r.counts), np, beyond(np, 0.9))
	must(m.set("join_ms_p50", "ms", hdQuantile(xr, 0.5)))
	must(m.set("join_ms_p90", "ms", hdQuantile(xr, 0.9)))
	must(m.set("bplus_join_ms_p50", "ms", hdQuantile(pointMedian(r.wall[xrtree.AlgBPlus], np), 0.5)))
	must(m.set("noindex_join_ms_p50", "ms", hdQuantile(pointMedian(r.wall[xrtree.AlgNoIndex], np), 0.5)))
}

func (b *bench) reportJoinLayers(rs [2]*joinRun, np int, m metricSet) {
	r := rs[1]
	n := float64(r.xrJoins)
	c := r.xr
	for _, e := range []struct {
		name, unit string
		v          float64
	}{
		{"pagefile.reads_per_join", "pages", float64(c.Reads) / n},
		{"pagefile.read_calls_per_join", "calls", float64(c.ReadCalls) / n},
		{"bufferpool.hit_ratio", "frac", ratio(float64(c.Hits), float64(c.Hits+c.Misses))},
		{"bufferpool.fetches_per_join", "fetches", float64(c.Hits+c.Misses) / n},
		{"bufferpool.evictions_per_join", "pages", float64(c.Evictions) / n},
		{"core.node_reads_per_join", "nodes", float64(c.NodeReads) / n},
		{"core.stab_page_reads_per_join", "pages", float64(c.StabReads) / n},
		{"core.probe_ms_per_join", "ms", sum(r.probeMS) / n},
		{"join.self_ms_p50", "ms", percentile(r.selfMS, 0.5)},
		{"join.elements_scanned_per_join", "elements", float64(c.Scanned) / n},
		{"join.anc_probes_per_join", "probes", float64(r.ancProbes) / n},
		{"join.alloc_bytes_per_join", "B", float64(r.allocBytes) / n},
	} {
		must(m.set(e.name, e.unit, e.v))
	}
	b.overhead(0, pointMedian(rs[0].wall[xrtree.AlgXRStack], np), pointMedian(r.wall[xrtree.AlgXRStack], np))
}

func (b *bench) reportProbe(r *probeRun, m metricSet) {
	b.note("probe: %s", tailNote("probe_us_p99", len(r.latUS), 0.99))
	must(m.set("probe_us_p50", "us", percentile(r.latUS, 0.5)))
	must(m.set("probe_us_p99", "us", percentile(r.latUS, 0.99)))
	must(m.set("probes_per_s", "1/s", float64(r.probes)/r.elapsed.Seconds()))
}

func (b *bench) reportProbeLayers(rs [2]*probeRun, m metricSet) {
	r := rs[1]
	n := float64(r.probes)
	must(m.set("bufferpool.probe_hit_ratio", "frac", ratio(float64(r.hits), float64(r.hits+r.misses))))
	must(m.set("bufferpool.fetches_per_probe", "fetches", float64(r.hits+r.misses)/n))
	must(m.set("core.node_reads_per_probe", "nodes", float64(r.nodeReads)/n))
	must(m.set("core.find_ancestors_us_p50", "us", percentile(r.ancUS, 0.5)))
	must(m.set("core.find_descendants_us_p50", "us", percentile(r.descUS, 0.5)))
	b.overhead(1, rs[0].latUS, r.latUS)
}

func (b *bench) reportServe(r *serveRun, m metricSet) {
	b.note("serve: read p99 %.3f ms over %d reads, write p50 %.3f ms and p99 %.3f ms over %d writes, generator lateness p99 %.3f ms",
		percentile(r.readMS, 0.99), len(r.readMS), percentile(r.writeMS, 0.5), percentile(r.writeMS, 0.99), len(r.writeMS), percentile(r.lateMS, 0.99))
	must(m.set("read_ms_p50", "ms", percentile(r.readMS, 0.5)))
}

// reportServeTails reports the serving figures too noisy to bound, from
// the untraced requests of a traced run.
func (b *bench) reportServeTails(r *serveRun, m metricSet) {
	b.note("read_ms_p99: median of %d-read chunk maxima; %s", tailChunk, tailNote("reads", len(r.readMS), 0.99))
	b.note("write_ms_p99: median of %d-write chunk maxima; %s", tailChunk, tailNote("writes", len(r.writeMS), 0.99))
	must(m.set("read_ms_p99", "ms", chunked(r.readMS, tailChunk, 1, 0.5)))
	must(m.set("write_ms_p50", "ms", percentile(r.writeMS, 0.5)))
	must(m.set("write_ms_p99", "ms", chunked(r.writeMS, tailChunk, 1, 0.5)))
}

func (b *bench) reportServeLayers(ph *phases, m metricSet) {
	r := ph.serve[1]
	ins := float64(r.insertedElems)
	must(m.set("pagefile.writes_per_insert", "pages", ratio(float64(ph.fileWrites), ins)))
	must(m.set("wal.fsyncs_per_commit", "frac", ratio(float64(ph.walFsyncs), float64(ph.walCommits))))
	must(m.set("wal.max_group", "commits", float64(ph.walMaxGroup)))
	must(m.set("wal.bytes_per_insert", "B", ratio(float64(ph.walBytes), ins)))
	must(m.set("server.read_overhead_ms_p50", "ms", percentile(r.overheadMS, 0.5)))
	must(m.set("server.insert_ms_p50", "ms", percentile(r.insertMS, 0.5)))
	must(m.set("server.queue_wait_ms_p99", "ms", ph.queueWaitP99))
	must(m.set("server.rejected", "requests", float64(ph.rejected)))
	// The generator's lateness matters for the untraced figures.
	must(m.set("loadgen.late_ms_p99", "ms", percentile(ph.serve[0].lateMS, 0.99)))
	b.reportServeTails(ph.serve[0], m)
	b.overhead(2, ph.serve[0].readMS, r.readMS)
}

// syncFile flushes a file's dirty pages to stable storage.
func syncFile(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// must panics on an error only a bug in the benchmark can produce: a
// metric name outside the charset or reported twice.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func equalCounts(a, b []joinCounts) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// repeatGuard compares the join phase's per-join counts with those an
// earlier run of the same binary, workload and seed recorded, and records
// them when no earlier run did. The join phase has one client, a fixed pool
// and a fixed order, so any difference is a defect, not noise.
func (b *bench) repeatGuard(counts []joinCounts) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("repeat guard: %w", err)
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		return fmt.Errorf("repeat guard: %w", err)
	}
	binSum := sha256.Sum256(bin)
	raw, err := json.Marshal(counts)
	if err != nil {
		return err
	}
	countSum := sha256.Sum256(raw)
	dir := filepath.Join(workDir, "repeat")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-seed%d", hex.EncodeToString(binSum[:8]), b.spec.name, b.seed))
	want := hex.EncodeToString(countSum[:])
	prev, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return os.WriteFile(path, []byte(want), 0o644)
	}
	if err != nil {
		return fmt.Errorf("repeat guard: %w", err)
	}
	if string(prev) != want {
		return fmt.Errorf("join: per-join counts differ from an earlier run of this binary with workload %s and seed %d", b.spec.name, b.seed)
	}
	return nil
}
