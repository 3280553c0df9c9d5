package main

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/mediator"
)

// workloadInputs is everything the seed decides, plus the answers a fresh
// system gives to the first questions of each workload.
type workloadInputs struct {
	Pool     []core.Question
	Distinct []core.Question
	Zipf     []int
	Edits    [][]edit
	Digests  []uint64
}

func inputsFor(t *testing.T, seed uint64) workloadInputs {
	t.Helper()
	cfg := datagen.DefaultConfig()
	cfg.Genes = 120
	sys, err := core.New(datagen.Generate(cfg), mediator.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.PlugInProteins(); err != nil {
		t.Fatal(err)
	}
	var ids []int
	var positions []string
	for _, g := range sys.Corpus.Genes {
		ids = append(ids, g.LocusID)
		positions = append(positions, g.Position)
	}
	sort.Strings(positions)

	in := workloadInputs{Pool: questionPool(seed, poolSize)}
	stream := newDistinctStream(seed, positions)
	for i := 0; i < 300; i++ {
		in.Distinct = append(in.Distinct, stream.next())
	}
	z := newZipf(rngFor(seed, streamZipf, 0), poolSize, zipfExponent)
	for i := 0; i < 1000; i++ {
		in.Zipf = append(in.Zipf, z.next())
	}
	for r := 0; r < 3; r++ {
		in.Edits = append(in.Edits, editRound(seed, r, ids))
	}
	asked := append(append([]core.Question(nil), in.Pool[:6]...), in.Distinct[:6]...)
	if in.Digests, err = digestAll(sys, asked, 2); err != nil {
		t.Fatal(err)
	}
	return in
}

func TestSeedDeterminesWorkload(t *testing.T) {
	a, again, other := inputsFor(t, 7), inputsFor(t, 7), inputsFor(t, 8)
	if !reflect.DeepEqual(a, again) {
		t.Fatal("the same seed produced different questions, draws, edits or answers")
	}
	for name, differ := range map[string]bool{
		"pool":            !reflect.DeepEqual(a.Pool, other.Pool),
		"distinct stream": !reflect.DeepEqual(a.Distinct, other.Distinct),
		"zipf draws":      !reflect.DeepEqual(a.Zipf, other.Zipf),
		"edits":           !reflect.DeepEqual(a.Edits, other.Edits),
		"answer digests":  !reflect.DeepEqual(a.Digests, other.Digests),
	} {
		if !differ {
			t.Errorf("seeds 7 and 8 gave the same %s", name)
		}
	}
}

// The workloads rely on these: ask-repeat's pool fits the cache with no
// duplicate, and ask-distinct never repeats a question, so every ask of it
// is a cache miss.
func TestQuestionsAreDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, q := range questionPool(3, poolSize) {
		k := questionKey(q)
		if seen[k] {
			t.Fatalf("pool repeats %s", k)
		}
		seen[k] = true
	}
	positions := make([]string, 100)
	for i := range positions {
		positions[i] = fmt.Sprintf("%02dq%d", i/5+1, 11+i%5)
	}
	stream := newDistinctStream(3, positions)
	seen = map[string]bool{}
	for i := 0; i < 1000; i++ {
		k := questionKey(stream.next())
		if seen[k] {
			t.Fatalf("distinct stream repeats %s at %d", k, i)
		}
		seen[k] = true
	}
}
