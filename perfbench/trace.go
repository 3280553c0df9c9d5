package main

import (
	"context"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mediator"
	"repro/internal/obs"
)

// Tracing. A traced run wraps each public call in a span of its own, kept
// in memory by a per-client obs.Tracer (ring of one: each client reads its
// trace back right after finishing it). The call's context carries the
// trace (obs.ContextWithTrace), so the mediator's existing stage spans —
// cache_lookup, plan_compile, epoch_pin, fetch, fuse, eval, and the
// refresh stages — land in it as children. A span's self time is its
// duration minus the part of it the children cover.
//
// AskCtx has no public seam between question compile, the mediator query
// and the view build, so a traced run rotates each client through three
// probes: an untraced AskCtx (the overhead baseline), a traced AskCtx
// (ask span → mediator stages), and a traced ToLorel + QueryStringCtx pair
// (compile span, query span → mediator stages). The pair's view is then
// fetched, untimed, with an AskCtx cache hit, so that every probe's answer
// still goes through the oracle.

type probeKind uint8

const (
	probeUntraced probeKind = iota
	probeAsk
	probeQuery
	probeKinds
)

// client is one goroutine issuing calls; its accumulated layer figures are
// merged into the run's when it stops.
type client struct {
	sys    *core.System
	o      *obs.Obs // nil unless traced
	seq    int
	layers *layers
}

func (b *bench) newClient() *client {
	c := &client{sys: b.sys}
	if b.traced {
		c.o = obs.New(obs.Config{RingSize: 1, SlowRingSize: 1})
		c.layers = newLayers()
	}
	return c
}

// ask serves one question with the client's next probe kind and digests
// the view it got (after the timed call).
func (c *client) ask(q core.Question) askRec {
	var rec askRec
	if c.o != nil {
		rec.kind = probeKind(c.seq % int(probeKinds))
		c.seq++
	}
	var (
		v     *core.View
		stats *mediator.Stats
		err   error
	)
	switch rec.kind {
	case probeUntraced:
		t0 := obs.Now()
		v, stats, err = c.sys.AskCtx(context.Background(), q)
		rec.lat = obs.Since(t0)
	case probeAsk:
		var spans []obs.SpanView
		rec.lat, spans = c.traced("ask", func(ctx context.Context) {
			v, stats, err = c.sys.AskCtx(ctx, q)
		})
		if err == nil {
			c.layers.askSpans(rec.lat, spans)
		}
	case probeQuery:
		var src string
		t0 := obs.Now()
		src, err = c.sys.ToLorel(q)
		compile := obs.Since(t0)
		if err != nil {
			break
		}
		var objects int
		var spans []obs.SpanView
		rec.lat, spans = c.traced("query", func(ctx context.Context) {
			res, st, qerr := c.sys.Manager.QueryStringCtx(ctx, src)
			stats, err = st, qerr
			if qerr == nil {
				objects = res.Graph.Len()
			}
		})
		if err != nil {
			break
		}
		c.layers.querySpans(compile, rec.lat, spans, objects, stats)
		v, _, err = c.sys.AskCtx(context.Background(), q)
	}
	if err != nil {
		rec.failed = true
		return rec
	}
	rec.hit = stats.CacheHit
	rec.digest = digestView(v)
	if c.layers != nil && rec.kind != probeQuery {
		c.layers.askStats(len(v.Rows), stats)
	}
	return rec
}

// refresh refreshes LocusLink, traced in a traced run.
func (c *client) refresh() (*mediator.RefreshResult, error) {
	if c.o == nil {
		return c.sys.Manager.RefreshSourceCtx(context.Background(), "LocusLink")
	}
	var rr *mediator.RefreshResult
	var err error
	d, _ := c.traced("refresh", func(ctx context.Context) {
		rr, err = c.sys.Manager.RefreshSourceCtx(ctx, "LocusLink")
	})
	if err == nil {
		c.layers.add("mediator.refresh_us", us(d))
	}
	return rr, err
}

// traced runs call under a fresh trace and returns its duration and the
// spans the callee recorded into it.
func (c *client) traced(op string, call func(ctx context.Context)) (time.Duration, []obs.SpanView) {
	tr := c.o.Tracer.Start(op, "")
	ctx := obs.ContextWithTrace(context.Background(), tr)
	t0 := obs.Now()
	call(ctx)
	d := obs.Since(t0)
	tr.Finish()
	return d, c.o.Tracer.Recent()[0].Spans
}

// stageMetric maps the mediator's query stages onto per-layer metric names.
// A fetch span noted with a source name is one source's fetch inside the
// query-level fetch span. Those, and the stages that take about a
// microsecond — the resolution spans are read back at — (cache_lookup,
// epoch_pin), count towards coverage only.
var stageMetric = map[string]string{
	obs.StagePlanCompile: "mediator.plan_compile_us",
	obs.StageFetch:       "mediator.fetch_us",
	obs.StageFuse:        "mediator.fuse_us",
	obs.StageEval:        "mediator.eval_us",
}

// layers accumulates per-layer sums and counts.
type layers struct {
	mu  sync.Mutex
	sum map[string]float64
	n   map[string]int
}

func newLayers() *layers {
	return &layers{sum: map[string]float64{}, n: map[string]int{}}
}

func (l *layers) add(name string, v float64) {
	l.sum[name] += v
	l.n[name]++
}

func (l *layers) mean(name string) float64 {
	if l.n[name] == 0 {
		return 0
	}
	return l.sum[name] / float64(l.n[name])
}

// stages records each mediator stage span and returns how much of the
// parent's [0, d] interval the spans cover.
func (l *layers) stages(d time.Duration, spans []obs.SpanView) time.Duration {
	type iv struct{ from, to int64 }
	var ivs []iv
	for _, s := range spans {
		if name, ok := stageMetric[s.Stage]; ok && (s.Stage != obs.StageFetch || s.Note == "") {
			l.add(name, float64(s.DurMicros))
		}
		ivs = append(ivs, iv{s.OffsetMicros, s.OffsetMicros + s.DurMicros})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].from < ivs[j].from })
	var covered, end int64
	limit := d.Microseconds()
	for _, v := range ivs {
		from, to := max(v.from, end), min(v.to, limit)
		if to > from {
			covered += to - from
			end = to
		}
	}
	return time.Duration(covered) * time.Microsecond
}

// askSpans records a traced AskCtx: its duration and the time no mediator
// span covers (compile and view build, until the program records them).
func (l *layers) askSpans(d time.Duration, spans []obs.SpanView) {
	covered := l.stages(d, spans)
	l.add("ask_us", us(d))
	l.add("ask_uncovered_us", us(d-covered))
}

// querySpans records a traced ToLorel + QueryStringCtx pair.
func (l *layers) querySpans(compile, d time.Duration, spans []obs.SpanView, objects int, stats *mediator.Stats) {
	l.stages(d, spans)
	l.add("core.compile_us", us(compile))
	l.add("mediator.query_us", us(d))
	if !stats.CacheHit {
		l.add("lorel.answer_objects", float64(objects))
	}
	l.missStats(stats)
}

// askStats records the answer size and route of a served AskCtx.
func (l *layers) askStats(rows int, stats *mediator.Stats) {
	l.add("core.view_rows", float64(rows))
	l.missStats(stats)
}

// missStats records which route a computed (missed) query took and, on the
// fetch+fuse route, how much of what it fetched survived pushdown.
func (l *layers) missStats(stats *mediator.Stats) {
	if stats.CacheHit {
		return
	}
	l.add("epoch_misses", b2f(stats.SnapshotUsed))
	if stats.SnapshotUsed {
		return
	}
	for src, n := range stats.Fetched {
		l.sum["fetched"] += float64(n)
		l.sum["kept"] += float64(stats.Kept[src])
	}
}

func (l *layers) merge(o *layers) {
	if l == nil || o == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for k, v := range o.sum {
		l.sum[k] += v
	}
	for k, v := range o.n {
		l.n[k] += v
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// perLayer derives the per-layer metrics. Ask-level figures (compile, self
// and unattributed time, view rows, query span, hit ratio, tracing
// overhead) cover the timed phase. Per-stage times, answer sizes and route
// ratios are means per occurrence over the warm-up and the timed phase
// together: on ask-repeat the stages that compute run only in warm-up, and
// how often they run shows in qcache.hit_ratio.
func (b *bench) perLayer() []namedMetric {
	t := b.layers
	all := newLayers()
	all.merge(b.warmLayers)
	all.merge(b.layers)
	compile := t.mean("core.compile_us")
	var hits int
	for _, a := range b.asks {
		if a.hit {
			hits++
		}
	}
	var lag, upserted float64
	var full int
	for _, r := range b.refreshes {
		lag += ms(r.lag)
		upserted += float64(r.upserted)
		if r.full {
			full++
		}
	}
	nr := max(len(b.refreshes), 1)
	asks := len(b.asks)
	ca, cb := b.cacheAfter, b.cacheBefore
	askN := t.n["ask_us"]
	out := []namedMetric{
		{"core.compile_us", metric{compile, "us", t.n["core.compile_us"]}},
		{"core.ask_self_us", metric{t.mean("ask_uncovered_us") - compile, "us", askN}},
		{"core.ask_unattributed_pct", metric{100 * t.sum["ask_uncovered_us"] / max(t.sum["ask_us"], 1), "%", askN}},
		{"core.view_rows", metric{t.mean("core.view_rows"), "count", t.n["core.view_rows"]}},
		{"mediator.query_us", metric{t.mean("mediator.query_us"), "us", t.n["mediator.query_us"]}},
		{"mediator.epoch_path_ratio", metric{all.mean("epoch_misses"), "ratio", all.n["epoch_misses"]}},
		{"mediator.kept_per_fetched", metric{all.sum["kept"] / max(all.sum["fetched"], 1), "ratio", int(all.sum["fetched"])}},
		{"mediator.refresh_us", metric{t.mean("mediator.refresh_us"), "us", t.n["mediator.refresh_us"]}},
		{"qcache.hit_ratio", metric{float64(hits) / float64(max(asks, 1)), "ratio", asks}},
		{"qcache.shared", metric{float64(ca.Shared - cb.Shared), "count", asks}},
		{"qcache.evictions", metric{float64(ca.Evictions - cb.Evictions), "count", asks}},
		{"qcache.entries", metric{float64(ca.Entries - cb.Entries), "count", asks}},
		{"lorel.answer_objects", metric{all.mean("lorel.answer_objects"), "count", all.n["lorel.answer_objects"]}},
		{"delta.upserted_per_refresh", metric{upserted / float64(nr), "count", len(b.refreshes)}},
		{"delta.full_rebuilds", metric{float64(full), "count", len(b.refreshes)}},
		{"runtime.gc_cycles_per_ask", metric{float64(b.gcCycles) / float64(max(asks, 1)), "count", asks}},
		{"runtime.gc_pause_ms", metric{ms(b.gcPause), "ms", int(b.gcCycles)}},
		{"bench.writer_lag_ms", metric{lag / float64(nr), "ms", len(b.refreshes)}},
		{"bench.trace_overhead_ms", metric{quantile(b.askLatencies(probeAsk), 0.5) - quantile(b.askLatencies(probeUntraced), 0.5), "ms", askN}},
	}
	for _, name := range stageMetric {
		out = append(out, namedMetric{name, metric{all.mean(name), "us", all.n[name]}})
	}
	return out
}
