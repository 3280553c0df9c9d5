package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sync"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/mediator"
)

// digestView hashes every row field of an integrated view, in row order
// (buildView sorts rows by Symbol and each list field), so two views digest
// equal exactly when they show the same genes with the same annotations.
func digestView(v *core.View) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	num := func(x int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	str := func(s string) {
		num(int64(len(s)))
		h.Write([]byte(s))
	}
	num(int64(len(v.Rows)))
	for i := range v.Rows {
		r := &v.Rows[i]
		num(r.GeneID)
		str(r.Symbol)
		str(r.Organism)
		str(r.Position)
		num(int64(len(r.GoIDs)))
		for _, s := range r.GoIDs {
			str(s)
		}
		num(int64(len(r.MimIDs)))
		for _, m := range r.MimIDs {
			num(m)
		}
		num(int64(len(r.Proteins)))
		for _, s := range r.Proteins {
			str(s)
		}
		num(int64(len(r.WebLinks)))
		for _, s := range r.WebLinks {
			str(s)
		}
	}
	return h.Sum64()
}

// newReference builds the correctness oracle: the same corpus and sources
// with the result cache off, so every question runs the paper's per-query
// fetch, fuse and eval pipeline.
func newReference(cfg datagen.Config) (*core.System, error) {
	sys, err := core.New(datagen.Generate(cfg), mediator.Options{DisableCache: true})
	if err != nil {
		return nil, err
	}
	if err := sys.PlugInProteins(); err != nil {
		return nil, err
	}
	return sys, nil
}

// digestAll asks sys every question with `workers` goroutines and returns
// the view digests in question order.
func digestAll(sys *core.System, qs []core.Question, workers int) ([]uint64, error) {
	out := make([]uint64, len(qs))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(qs); i += workers {
				v, _, err := sys.AskCtx(context.Background(), qs[i])
				if err != nil {
					errs[w] = fmt.Errorf("question %d: %w", i, err)
					return
				}
				out[i] = digestView(v)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
