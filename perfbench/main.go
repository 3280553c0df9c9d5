// Command perfbench is the repository benchmark: it builds an ANNODA system
// the way annoda-server does by default and drives one workload against it
// in-process, timing only calls into public functions (core.System.AskCtx
// and ToLorel, mediator.Manager.QueryStringCtx, CacheCounters and
// RefreshSourceCtx, locuslink.DB.Update).
//
//	go run . --workload ask-repeat --seed 1 --seconds 20 --trace 0
//
// Workloads (closed-loop readers, never more than the CPUs and at most
// two; the result cache keeps qcache.DefaultCapacity entries):
//
//   - ask-repeat: two readers draw Zipf from a seeded pool of 64 questions
//     that fits the cache, so after warm-up every mediator call is a hit
//     and the time goes to the view, query analysis and cache lookup.
//   - ask-distinct: two readers share a seeded stream of distinct
//     questions, more than the cache holds, so every ask is a miss and
//     runs eval (epoch route) or fetch+fuse+eval (pipeline route).
//
// Both start, right after set-up, with a refresh probe: a writer on a fixed
// open-loop schedule edits 1% of the LocusLink loci and refreshes the
// source, 64 times, with no reader beside it. The warm-up and the timed
// phase come after it, so the views they serve are post-delta views.
//
// The correctness oracle is a second system built with DisableCache (the
// paper's per-query pipeline) that replays the probe's edits. Outside the
// timed region, every view served in the timed phase is compared with the
// view it gives. Mismatches count as failed asks; they are never filtered.
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// reports per-layer metrics from spans the benchmark records around each
// public call (see trace.go). The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/mediator"
	"repro/internal/obs"
	"repro/internal/qcache"
)

const (
	corpusGenes  = 1000
	maxReaders   = 2
	poolSize     = 64
	zipfExponent = 1.0
	// setupRepeats: setup_s is the median of this many full set-ups.
	setupRepeats = 5
	// distinctWarmup asks the first questions of the ask-distinct stream
	// untimed, so the timed phase starts with a warm heap.
	distinctWarmup = 16
	// The refresh probe: 64 rounds, 150 ms apart.
	probeRounds   = 64
	probeInterval = 150 * time.Millisecond
)

var workloadNames = []string{"ask-repeat", "ask-distinct"}

func main() {
	workload := flag.String("workload", "", "ask-repeat or ask-distinct")
	seed := flag.Uint64("seed", 1, "workload seed: questions, Zipf draws and edits")
	seconds := flag.Int("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	known := false
	for _, w := range workloadNames {
		known = known || w == *workload
	}
	if !known || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %v, --seconds >= 1, --trace 0|1\n", workloadNames)
		os.Exit(2)
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		dur:      time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		readers:  min(maxReaders, runtime.NumCPU()),
	}
	if err := b.run(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	b.report(os.Stdout)
}

// bench is one run of one workload.
type bench struct {
	workload string
	seed     uint64
	dur      time.Duration
	traced   bool
	readers  int

	cfg       datagen.Config
	sys       *core.System
	locusIDs  []int
	positions []string // gene positions, sorted
	pool      []core.Question
	asked     []core.Question // questions the ask records index

	setupSecs []float64
	asks      []askRec // timed asks, every reader
	phase     time.Duration
	refreshes []refreshRec
	rounds    int // edit rounds applied to the system under test

	allocBytes  uint64
	gcCycles    uint64
	gcPause     time.Duration
	retained    uint64
	cacheBefore qcache.Counters
	cacheAfter  qcache.Counters

	// Correctness: every check is an attempt; a wrong or failed one is a
	// failure.
	checked, wrong, askErrs, refreshErrs int

	// Traced runs only: figures from the warm-up, and from the timed
	// phase and the probe.
	warmLayers, layers *layers
}

type askRec struct {
	q      int32 // index into bench.asked
	kind   probeKind
	hit    bool
	lat    time.Duration
	digest uint64
	failed bool
}

type refreshRec struct {
	lat, lag time.Duration
	upserted int
	full     bool
}

func (b *bench) run() error {
	b.cfg = datagen.DefaultConfig()
	b.cfg.Genes = corpusGenes
	if err := b.setup(); err != nil {
		return err
	}
	for _, g := range b.sys.Corpus.Genes {
		b.locusIDs = append(b.locusIDs, g.LocusID)
		b.positions = append(b.positions, g.Position)
	}
	sort.Strings(b.positions)
	b.pool = questionPool(b.seed, poolSize)
	if b.traced {
		b.warmLayers, b.layers = newLayers(), newLayers()
	}

	b.writer(probeRounds, probeInterval)
	var err error
	if b.workload == "ask-repeat" {
		err = b.askRepeat()
	} else {
		err = b.askDistinct()
	}
	if err != nil {
		return err
	}
	b.measureRetained()
	return b.check()
}

// setup builds the system under test setupRepeats times, each from corpus
// generation to the first answer (core.New, PlugInProteins and the first
// epoch build), and keeps the last.
func (b *bench) setup() error {
	first := core.Question{Include: annotationSources, Combine: core.CombineAny}
	for i := 0; i < setupRepeats; i++ {
		b.sys = nil
		runtime.GC()
		t0 := obs.Now()
		sys, err := core.New(datagen.Generate(b.cfg), mediator.Options{Obs: obs.New(obs.Config{})})
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		if err := sys.PlugInProteins(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		if _, _, err := sys.AskCtx(context.Background(), first); err != nil {
			return fmt.Errorf("setup: first answer: %w", err)
		}
		b.setupSecs = append(b.setupSecs, obs.Since(t0).Seconds())
		b.sys = sys
	}
	return nil
}

// askRepeat: warm the cache with every pool question, then let the readers
// draw Zipf from the pool.
func (b *bench) askRepeat() error {
	b.asked = b.pool
	if err := b.warm(b.pool); err != nil {
		return err
	}
	b.timed(b.zipfSource)
	return nil
}

// askDistinct: readers take turns on one stream of distinct questions.
func (b *bench) askDistinct() error {
	stream := newDistinctStream(b.seed, b.positions)
	warm := make([]core.Question, distinctWarmup)
	for i := range warm {
		warm[i] = stream.next()
	}
	if err := b.warm(warm); err != nil {
		return err
	}
	var mu sync.Mutex
	next := func(int) func() (int, core.Question) {
		return func() (int, core.Question) {
			mu.Lock()
			defer mu.Unlock()
			q := stream.next()
			b.asked = append(b.asked, q)
			return len(b.asked) - 1, q
		}
	}
	b.timed(next)
	return nil
}

// zipfSource gives reader i its own seeded Zipf stream over the pool.
func (b *bench) zipfSource(i int) func() (int, core.Question) {
	z := newZipf(rngFor(b.seed, streamZipf, uint64(i)), len(b.pool), zipfExponent)
	return func() (int, core.Question) {
		k := z.next()
		return k, b.pool[k]
	}
}

// warm asks each question once, untimed, split over the readers.
func (b *bench) warm(qs []core.Question) error {
	errs := make([]error, b.readers)
	var wg sync.WaitGroup
	for r := 0; r < b.readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := b.newClient()
			for i := r; i < len(qs); i += b.readers {
				if rec := c.ask(qs[i]); rec.failed {
					errs[r] = fmt.Errorf("warm-up question %d failed", i)
					return
				}
			}
			b.warmLayers.merge(c.layers)
		}(r)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// timed runs the closed-loop readers for b.dur, each asking the questions
// its source yields. Run-wide allocation and GC counters bracket the phase.
func (b *bench) timed(source func(reader int) func() (int, core.Question)) {
	runtime.GC() // start every run from the same heap state
	b.cacheBefore, _ = b.sys.Manager.CacheCounters()
	rt0 := readRuntime()
	recs := make([][]askRec, b.readers)
	var wg sync.WaitGroup
	start := obs.Now()
	deadline := start.Add(b.dur)
	for r := 0; r < b.readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := b.newClient()
			next := source(r)
			for obs.Now().Before(deadline) {
				qi, q := next()
				rec := c.ask(q)
				rec.q = int32(qi)
				recs[r] = append(recs[r], rec)
			}
			b.layers.merge(c.layers)
		}(r)
	}
	wg.Wait()
	b.phase = obs.Since(start)
	rt1 := readRuntime()
	b.cacheAfter, _ = b.sys.Manager.CacheCounters()
	b.allocBytes = rt1.allocBytes - rt0.allocBytes
	b.gcCycles = rt1.gcCycles - rt0.gcCycles
	b.gcPause = rt1.gcPause - rt0.gcPause
	for _, rs := range recs {
		for _, a := range rs {
			if a.failed {
				b.askErrs++
			}
		}
		b.asks = append(b.asks, rs...)
	}
}

// writer runs rounds of edits on a fixed open-loop schedule: round r is due
// at start + (r+1)·interval and, if the previous round overran, starts late
// rather than skipping. Each round edits 1% of the loci through
// LocusLink.Update and then calls RefreshSourceCtx; its latency runs from
// the due time until the refresh returns.
func (b *bench) writer(rounds int, interval time.Duration) {
	c := b.newClient()
	start := obs.Now()
	for r := 0; r < rounds; r++ {
		due := start.Add(time.Duration(r+1) * interval)
		if d := obs.Until(due); d > 0 {
			time.Sleep(d)
		}
		lag := obs.Since(due)
		for _, e := range editRound(b.seed, b.rounds, b.locusIDs) {
			if err := b.sys.LocusLink.Update(e.LocusID, e.apply); err != nil {
				b.refreshErrs++
			}
		}
		b.rounds++
		rr, err := c.refresh()
		rec := refreshRec{lat: obs.Since(due), lag: lag}
		if err != nil {
			b.refreshErrs++
		} else {
			rec.upserted, rec.full = rr.Upserted, rr.FullRebuild
		}
		b.refreshes = append(b.refreshes, rec)
	}
	b.layers.merge(c.layers)
}

// measureRetained records the heap still in use after a forced GC: the
// system, its epoch and whatever the result cache kept.
func (b *bench) measureRetained() {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.retained = ms.HeapAlloc
}

// check replays the probe's edits on a reference system and compares every
// view served in the timed phase with the one the reference gives.
func (b *bench) check() error {
	ref, err := newReference(b.cfg)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	for r := 0; r < b.rounds; r++ {
		for _, e := range editRound(b.seed, r, b.locusIDs) {
			if err := ref.LocusLink.Update(e.LocusID, e.apply); err != nil {
				return fmt.Errorf("reference edit: %w", err)
			}
		}
	}
	if _, err := ref.Manager.RefreshSourceCtx(context.Background(), "LocusLink"); err != nil {
		return fmt.Errorf("reference refresh: %w", err)
	}
	want, err := digestAll(ref, b.asked, b.readers)
	if err != nil {
		return fmt.Errorf("reference answers: %w", err)
	}
	for i := range b.asks {
		a := &b.asks[i]
		if a.failed {
			continue
		}
		b.checked++
		if a.digest != want[a.q] {
			a.failed = true
			b.wrong++
		}
	}
	return nil
}

type runtimeSample struct {
	allocBytes, gcCycles uint64
	gcPause              time.Duration
}

func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeSample{allocBytes: ms.TotalAlloc, gcCycles: uint64(ms.NumGC), gcPause: time.Duration(ms.PauseTotalNs)}
}

// metric is one reported figure.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	samples int
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// askLatencies returns the timed latencies, in ms, of one probe kind.
func (b *bench) askLatencies(kind probeKind) []float64 {
	var out []float64
	for _, a := range b.asks {
		if a.kind == kind {
			out = append(out, ms(a.lat))
		}
	}
	return out
}

func (b *bench) report(w io.Writer) {
	res := result{Metrics: map[string]metric{}}
	attempted := len(b.asks) + len(b.refreshes)
	askFailures := 0
	for _, a := range b.asks {
		if a.failed {
			askFailures++
		}
	}
	res.Attempted = attempted
	res.Failed = askFailures + b.refreshErrs
	res.Correct = res.Failed == 0

	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g trace=%v\n", b.workload, b.seed, b.dur.Seconds(), b.traced)
	fmt.Fprintf(w, "config: clients=%d loop=closed corpus_genes=%d cache_capacity=%d pool=%d zipf_s=%g probe=%d refreshes every %v\n",
		b.readers, corpusGenes, qcache.DefaultCapacity, poolSize, zipfExponent, probeRounds, probeInterval)
	fmt.Fprintf(w, "checks: %d timed views compared after %d edit rounds, %d wrong; %d ask errors, %d refresh errors\n",
		b.checked, b.rounds, b.wrong, b.askErrs, b.refreshErrs)
	fmt.Fprintf(w, "metric ask_fail_ratio %g ratio n=%d\n", float64(askFailures)/float64(max(len(b.asks), 1)), len(b.asks))

	if b.traced {
		for _, m := range b.perLayer() {
			res.Metrics[m.name] = m.metric
		}
	} else {
		for _, m := range b.endToEnd() {
			res.Metrics[m.name] = m.metric
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "metric %s %.6g %s n=%d\n", n, m.Value, m.Unit, m.samples)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(w, string(out))
}

type namedMetric struct {
	name string
	metric
}

func (b *bench) endToEnd() []namedMetric {
	lat := b.askLatencies(probeUntraced)
	var refresh []float64
	for _, r := range b.refreshes {
		refresh = append(refresh, ms(r.lat))
	}
	n := max(len(lat), 1)
	return []namedMetric{
		{"setup_s", metric{median(b.setupSecs), "s", len(b.setupSecs)}},
		{"ask_p50_ms", metric{quantile(lat, 0.50), "ms", len(lat)}},
		{"ask_p95_ms", metric{quantile(lat, 0.95), "ms", len(lat)}},
		{"ask_per_s", metric{float64(len(lat)) / b.phase.Seconds(), "1/s", len(lat)}},
		// The mean, not the median: refresh latency alternates between two
		// modes (every other refresh pays for a GC cycle), so the median of
		// a run's refreshes flips between them from run to run.
		{"refresh_mean_ms", metric{mean(refresh), "ms", len(refresh)}},
		{"retained_mb", metric{float64(b.retained) / (1 << 20), "MB", 1}},
		{"alloc_kb_per_ask", metric{float64(b.allocBytes) / 1024 / float64(n), "KB", len(lat)}},
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(max(len(xs), 1))
}

// quantile is the linear-interpolation sample quantile (0 for no samples).
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
