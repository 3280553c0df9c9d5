package core

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/mediator"
	"repro/internal/obs"
	"repro/internal/sources/locuslink"
)

// bothAnnotated is a cached question whose rows carry GO and OMIM lists.
var bothAnnotated = Question{Include: []string{"GO", "OMIM"}, Combine: CombineAll}

// cloneView deep-copies a view so later mutations of v cannot reach it.
func cloneView(v *View) *View {
	c := *v
	c.Rows = nil
	for _, r := range v.Rows {
		r.GoIDs = append([]string(nil), r.GoIDs...)
		r.MimIDs = append([]int64(nil), r.MimIDs...)
		r.Proteins = append([]string(nil), r.Proteins...)
		r.WebLinks = append([]string(nil), r.WebLinks...)
		c.Rows = append(c.Rows, r)
	}
	return &c
}

// TestAskViewsAreIndependent: every hit of one cached answer reuses its
// memoized rows, yet each caller owns its view. Reordering, writing or
// appending to one view changes neither another caller's view nor the
// rows served to the next ask.
func TestAskViewsAreIndependent(t *testing.T) {
	s := system(t)
	v1, _, err := s.Ask(bothAnnotated)
	if err != nil {
		t.Fatal(err)
	}
	v2, st, err := s.Ask(bothAnnotated)
	if err != nil {
		t.Fatal(err)
	}
	if !st.CacheHit {
		t.Fatal("second ask of one question missed the cache")
	}
	if len(v1.Rows) < 2 {
		t.Fatalf("question answered %d rows; need at least 2", len(v1.Rows))
	}
	want := cloneView(v2)

	if err := v1.SortBy("geneid"); err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(v1.Rows, want.Rows) {
		t.Fatal("sorting by geneid left the symbol order unchanged; pick a question whose orders differ")
	}
	before := cloneView(v1)
	v1.Rows[0].GoIDs[0] = "GO:mutated"
	v1.Rows[0].MimIDs = append(v1.Rows[0].MimIDs, -1)
	for i := 1; i < len(v1.Rows); i++ {
		if !reflect.DeepEqual(v1.Rows[i], before.Rows[i]) {
			t.Fatalf("appending to row 0's MimIDs changed row %d: %+v, was %+v", i, v1.Rows[i], before.Rows[i])
		}
	}

	if !reflect.DeepEqual(v2, want) {
		t.Error("mutating one view changed another caller's view")
	}
	v3, _, err := s.Ask(bothAnnotated)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v3, want) {
		t.Error("mutating one view changed the rows served to a later ask")
	}
}

// TestConcurrentAsksOfOneQuestion races first asks (and hits) of one
// cached question, each caller mutating its own view. Run under -race:
// rows shared between callers show up as a data race.
func TestConcurrentAsksOfOneQuestion(t *testing.T) {
	sys, err := New(smallCorpus(), mediator.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(smallCorpus(), mediator.Options{DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := ref.Ask(bothAnnotated)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8*4)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				v, _, err := sys.Ask(bothAnnotated)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(v.Rows, want.Rows) {
					errs <- fmt.Errorf("goroutine %d ask %d: rows differ from the uncached reference", g, i)
				}
				if err := v.SortBy("position"); err != nil {
					errs <- err
					return
				}
				for j := range v.Rows {
					if len(v.Rows[j].GoIDs) > 0 {
						v.Rows[j].GoIDs[0] = "GO:mine"
					}
					v.Rows[j].MimIDs = append(v.Rows[j].MimIDs, int64(g))
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRefreshServesEditedRow: the memo lives exactly as long as its cached
// answer. A source edit plus refresh invalidates the entry, and the next
// ask builds its rows from the new answer.
func TestRefreshServesEditedRow(t *testing.T) {
	s := system(t)
	all := Question{}
	for i := 0; i < 2; i++ { // a miss, then a hit that serves memoized rows
		if _, _, err := s.Ask(all); err != nil {
			t.Fatal(err)
		}
	}
	target := s.Corpus.Genes[0].LocusID
	const edited = "99q99.9"
	if err := s.LocusLink.Update(target, func(l *locuslink.Locus) { l.Position = edited }); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Manager.RefreshSourceCtx(context.Background(), "LocusLink"); err != nil {
		t.Fatal(err)
	}
	v, _, err := s.Ask(all)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range v.Rows {
		if r.GeneID == int64(target) {
			if r.Position != edited {
				t.Errorf("gene %d served position %q after refresh, want %q", target, r.Position, edited)
			}
			return
		}
	}
	t.Fatalf("gene %d missing from the view", target)
}

// TestAskRecordsOneViewSpan: a traced ask records exactly one view span,
// whether it computed the answer or hit the cache.
func TestAskRecordsOneViewSpan(t *testing.T) {
	s := system(t)
	o := obs.New(obs.Config{})
	for _, wantHit := range []bool{false, true} {
		tr := o.Tracer.Start("ask", "")
		_, st, err := s.AskCtx(obs.ContextWithTrace(context.Background(), tr), Figure5bQuestion())
		if err != nil {
			t.Fatal(err)
		}
		tr.Finish()
		if st.CacheHit != wantHit {
			t.Fatalf("cache hit = %v, want %v", st.CacheHit, wantHit)
		}
		views := 0
		for _, sp := range o.Tracer.Recent()[0].Spans {
			if sp.Stage == obs.StageView {
				views++
			}
		}
		if views != 1 {
			t.Errorf("hit=%v: %d view spans, want 1", wantHit, views)
		}
	}
}

// TestBatchRowsMatchAskRows: AnnotateBatch and Ask build a gene's row with
// the same function, so with ProtDB plugged in a batch row equals that
// gene's row from the two questions that together cover every gene with
// all concepts present (any annotation; no annotation).
func TestBatchRowsMatchAskRows(t *testing.T) {
	s := system(t)
	if err := s.PlugInProteins(); err != nil {
		t.Fatal(err)
	}
	srcs := []string{"GO", "OMIM", "ProtDB"}
	askRows := map[int64]ViewRow{}
	for _, q := range []Question{
		{Include: srcs, Combine: CombineAny},
		{Exclude: srcs},
	} {
		v, _, err := s.Ask(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range v.Rows {
			askRows[r.GeneID] = r
		}
	}
	if len(askRows) != len(s.Corpus.Genes) {
		t.Fatalf("the two questions cover %d genes, corpus has %d", len(askRows), len(s.Corpus.Genes))
	}
	var symbols []string
	for i := 0; i < len(s.Corpus.Genes); i += 3 {
		symbols = append(symbols, s.Corpus.Genes[i].Symbol)
	}
	results, err := s.AnnotateBatch(symbols, 4)
	if err != nil {
		t.Fatal(err)
	}
	var proteins, links int
	for _, br := range results {
		if br.Err != nil {
			t.Fatalf("%s: %v", br.Symbol, br.Err)
		}
		want, ok := askRows[br.Row.GeneID]
		if !ok {
			t.Fatalf("%s: gene %d in no ask view", br.Symbol, br.Row.GeneID)
		}
		if !reflect.DeepEqual(*br.Row, want) {
			t.Errorf("%s: batch row\n%+v\nask row\n%+v", br.Symbol, *br.Row, want)
		}
		proteins += len(br.Row.Proteins)
		links += len(br.Row.WebLinks)
	}
	if proteins == 0 || links == 0 {
		t.Errorf("sampled batch rows carry %d proteins and %d web-links; want both > 0", proteins, links)
	}
}
