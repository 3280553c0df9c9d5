package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/sources/locuslink"
)

// The generators below are the only place the workload seed enters the
// benchmark. Each draws from its own SplitMix64 stream (datagen.RNG, stable
// across Go releases) derived from the seed, so adding draws to one stream
// never shifts another.

const (
	streamQuestions = iota + 1
	streamPool
	streamZipf
	streamEdits
)

func rngFor(seed uint64, stream int, sub uint64) *datagen.RNG {
	r := datagen.NewRNG(seed*0x9E3779B97F4A7C15 + uint64(stream)<<32 + sub)
	r.Next()
	return r
}

// annotationSources are the sources a Figure 5(a) question can include or
// exclude; LocusLink is the gene population itself.
var annotationSources = []string{"GO", "OMIM", "ProtDB"}

// organisms is the corpus's organism vocabulary (datagen), used by
// Organism conditions and Organism edits.
var organisms = []string{"Homo sapiens", "Mus musculus", "Rattus norvegicus", "Danio rerio"}

var positionOps = []string{"<", "<=", ">", ">="}

// A question's shape is everything that sets its cost: which sources it
// includes and excludes, how the includes combine, and which fields it
// conditions on. The seed draws condition values, never shapes: a free
// draw lets one seed stack a run with broad questions and another with
// narrow ones, and the latency figures would then measure the seed instead
// of the program.
type shape struct {
	include, exclude []string
	combine          core.CombineMode
	fields           []string // condition fields, sorted
	stratum          int      // ask-distinct's Position share stratum
}

// patterns lists every include/exclude/combine pattern over the annotation
// sources (34: combine is only a choice with two or more includes),
// starting from the paper's running example — include GO, exclude OMIM —
// so that it is the most asked question of ask-repeat.
var patterns = func() []shape {
	var out []shape
	for i := 0; i < 27; i++ {
		var s shape
		c := (i + 7) % 27 // 7 = include GO (1) + exclude OMIM (2·3)
		for _, src := range annotationSources {
			switch c % 3 {
			case 1:
				s.include = append(s.include, src)
			case 2:
				s.exclude = append(s.exclude, src)
			}
			c /= 3
		}
		out = append(out, s)
		if len(s.include) > 1 {
			s.combine = core.CombineAny
			out = append(out, s)
		}
	}
	return out
}()

// conditionSets lists the condition-field choices of a conditioned
// question: one or two of Symbol (like), Organism (=) and Position
// (comparisons).
var conditionSets = [][]string{
	{"Symbol"}, {"Organism"}, {"Position"},
	{"Organism", "Symbol"}, {"Position", "Symbol"}, {"Organism", "Position"},
}

// instantiate draws condition values for s: Symbol and Organism values from
// r, Position comparisons from position.
func (s shape) instantiate(r *datagen.RNG, position func() core.Condition) core.Question {
	q := core.Question{Include: s.include, Exclude: s.exclude, Combine: s.combine}
	for _, f := range s.fields {
		switch f {
		case "Symbol":
			q.Conditions = append(q.Conditions, core.Condition{Field: f, Op: "like", Value: string(rune('A'+r.Intn(26))) + "%"})
		case "Organism":
			q.Conditions = append(q.Conditions, core.Condition{Field: f, Op: "=", Value: datagen.Pick(r, organisms)})
		case "Position":
			q.Conditions = append(q.Conditions, position())
		}
	}
	return q
}

// questionPool is the ask-repeat pool: n ≤ 68 distinct questions. Rank k
// asks pattern k mod 34, alternately bare and with an Organism condition
// (the alternation flips after each pass over the patterns, so no two
// ranks share a shape). Symbol and Position conditions are left to
// ask-distinct: their selectivity swings with the drawn value, and a
// 64-question Zipf mix is too small to average that out.
func questionPool(seed uint64, n int) []core.Question {
	r := rngFor(seed, streamPool, 0)
	pool := make([]core.Question, n)
	for k := range pool {
		s := patterns[k%len(patterns)]
		if (k+k/len(patterns))%2 == 1 {
			s.fields = []string{"Organism"}
		}
		pool[k] = s.instantiate(r, nil)
	}
	return pool
}

// distinctStream yields never-repeating questions for ask-distinct. It
// walks the 204 conditioned shapes (34 patterns × 6 condition sets) over
// and over in one fixed order, drawing fresh condition values from the
// seed on every pass. The order interleaves patterns and condition sets,
// so any stretch of it holds an even mix of both, and it is the same for
// every seed: a run gets through one pass and part of the next, and a
// seeded order would give that part — a third of the run's asks — a
// different mix for every seed. The 34 condition-free questions are left
// out: a stream of distinct questions would use them up in its first pass
// and then change its mix.
//
// Position comparisons get the same treatment. A cut-off drawn freely
// keeps a uniform share of the genes, from none to all, and whether the
// broad shapes happened to draw wide or narrow cut-offs would then decide
// how much a run allocates and the cache retains. Instead each Position
// shape owns a fixed stratum of [0, 1) — a fixed scramble of the 102
// Position shapes — and each pass draws the share of genes its comparison
// keeps from inside that stratum, picking the cut-off from the corpus's
// sorted gene positions.
type distinctStream struct {
	r         *datagen.RNG
	positions []string // corpus gene positions, sorted
	order     []shape
	pos       int
	strata    int // number of Position shapes
	seen      map[string]bool
}

func newDistinctStream(seed uint64, positions []string) *distinctStream {
	d := &distinctStream{r: rngFor(seed, streamQuestions, 0), positions: positions, seen: map[string]bool{}}
	// Shape k is pattern k mod 34 with condition set (k + k/34) mod 6:
	// for a fixed pattern, k/34 steps through 0..5 and 35·(k/34) mod 6
	// through all six sets, so the 204 values of k cover every pair once.
	np, nc := len(patterns), len(conditionSets)
	for k := 0; k < np*nc; k++ {
		s := patterns[k%np]
		s.fields = conditionSets[(k+k/np)%nc]
		for _, f := range s.fields {
			if f == "Position" {
				s.stratum = d.strata
				d.strata++
			}
		}
		d.order = append(d.order, s)
	}
	for i := range d.order {
		d.order[i].stratum = d.order[i].stratum * 37 % d.strata // 37 is coprime to 102
	}
	return d
}

func (d *distinctStream) next() core.Question {
	for {
		s := d.order[d.pos]
		d.pos = (d.pos + 1) % len(d.order)
		// A shape with few possible questions (an Organism condition
		// alone has four) runs out after a few passes; skip it then.
		position := func() core.Condition { return d.position(s.stratum) }
		for try := 0; try < 16; try++ {
			q := s.instantiate(d.r, position)
			if k := questionKey(q); !d.seen[k] {
				d.seen[k] = true
				return q
			}
		}
	}
}

// position draws a Position comparison that keeps a share of the genes
// inside the given stratum.
func (d *distinctStream) position(stratum int) core.Condition {
	share := (float64(stratum) + d.r.Float()) / float64(d.strata)
	op := datagen.Pick(d.r, positionOps)
	if op == ">" || op == ">=" {
		share = 1 - share
	}
	i := min(int(share*float64(len(d.positions))), len(d.positions)-1)
	return core.Condition{Field: "Position", Op: op, Value: d.positions[i]}
}

// drawPosition returns a cytogenetic position in the corpus's format
// ("7q21", "19p13.2").
func drawPosition(r *datagen.RNG) string {
	arm := "q"
	if r.Bool(0.4) {
		arm = "p"
	}
	pos := fmt.Sprintf("%d%s%d", 1+r.Intn(22), arm, 11+r.Intn(25))
	if r.Bool(0.5) {
		pos += fmt.Sprintf(".%d", 1+r.Intn(3))
	}
	return pos
}

// questionKey identifies a question by what it asks.
func questionKey(q core.Question) string {
	return fmt.Sprintf("%v|%v|%d|%v", q.Include, q.Exclude, q.Combine, q.Conditions)
}

// zipf draws pool indices with P(i) ∝ 1/(i+1)^s.
type zipf struct {
	r   *datagen.RNG
	cdf []float64
}

func newZipf(r *datagen.RNG, n int, s float64) *zipf {
	z := &zipf{r: r, cdf: make([]float64, n)}
	var sum float64
	for i := range z.cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

func (z *zipf) next() int {
	return min(sort.SearchFloat64s(z.cdf, z.r.Float()), len(z.cdf)-1)
}

// edit is one source change the writer makes: a new Position or Organism
// for one LocusLink locus, both of which the integrated view shows.
type edit struct {
	LocusID  int
	Position string // "" leaves Position alone
	Organism string // "" leaves Organism alone
}

func (e edit) apply(l *locuslink.Locus) {
	if e.Position != "" {
		l.Position = e.Position
	}
	if e.Organism != "" {
		l.Organism = e.Organism
	}
}

// editRound returns round's edits: a seeded 1% of the loci (at least one),
// each getting a new Position or a new Organism. A round depends only on
// (seed, round), so the reference system can replay any prefix of rounds.
func editRound(seed uint64, round int, locusIDs []int) []edit {
	r := rngFor(seed, streamEdits, uint64(round))
	n := len(locusIDs) / 100
	if n < 1 {
		n = 1
	}
	idx := make([]int, len(locusIDs))
	for i := range idx {
		idx[i] = i
	}
	out := make([]edit, n)
	for k := range out {
		// Partial Fisher–Yates: n distinct loci.
		j := k + r.Intn(len(idx)-k)
		idx[k], idx[j] = idx[j], idx[k]
		e := edit{LocusID: locusIDs[idx[k]]}
		if r.Bool(0.5) {
			e.Position = drawPosition(r)
		} else {
			e.Organism = datagen.Pick(r, organisms)
		}
		out[k] = e
	}
	return out
}
