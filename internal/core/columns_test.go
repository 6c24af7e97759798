package core

import (
	"fmt"
	"reflect"
	"testing"

	"fsjoin/internal/dataset"
	"fsjoin/internal/fragjoin"
	"fsjoin/internal/mapreduce"
	"fsjoin/internal/massjoin"
	"fsjoin/internal/minhash"
	"fsjoin/internal/partition"
	"fsjoin/internal/result"
	"fsjoin/internal/ridpairs"
	"fsjoin/internal/similarity"
	"fsjoin/internal/tokens"
	"fsjoin/internal/vsmart"
)

// splitRS deals c's records alternately into an R and an S collection.
func splitRS(c *tokens.Collection) (r, s *tokens.Collection) {
	r, s = &tokens.Collection{}, &tokens.Collection{}
	for i, rec := range c.Records {
		side := r
		if i%2 == 1 {
			side = s
		}
		rec.RID = int32(len(side.Records))
		side.Records = append(side.Records, rec)
	}
	return r, s
}

// TestShuffleHoldsNoBoxedPartition: every shuffle partition of every stage
// of every algorithm holds values of one registered type — a partition of
// a value with no codec, or of two types, fails its job — self and R-S
// where the algorithm joins R-S, in memory and under a 1 KiB budget that
// spills them all, with the same pairs either way. FS-Join runs again on
// miniatures of the benchmark's join shapes: PubMed under the public
// defaults, an R-S join of Email in 8 fragments and Wiki in one.
func TestShuffleHoldsNoBoxedPartition(t *testing.T) {
	type run func(r, s *tokens.Collection, budget int64, env mapreduce.Env) ([]result.Pair, *mapreduce.Pipeline, error)
	fsjoin := func(theta float64, vertical, horizontal int) run {
		return func(r, s *tokens.Collection, budget int64, env mapreduce.Env) ([]result.Pair, *mapreduce.Pipeline, error) {
			opt := Options{Theta: theta, PivotMethod: partition.EvenTF, VerticalPartitions: vertical,
				HorizontalPivots: horizontal, JoinMethod: fragjoin.Prefix, LocalParallelism: 2, MemoryBudget: budget, Env: env}
			res, err := SelfJoin(r, opt)
			if s != nil {
				res, err = Join(r, s, opt)
			}
			if err != nil {
				return nil, nil, err
			}
			if res.FilterOutputRecords == 0 {
				return nil, nil, fmt.Errorf("the filtering job emitted nothing")
			}
			return res.Pairs, res.Pipeline, nil
		}
	}
	algos := map[string]run{
		"fs":   fsjoin(0.8, 30, 10),
		"fs-v": fsjoin(0.8, 30, 0),
		"ridpairs": func(r, s *tokens.Collection, budget int64, env mapreduce.Env) ([]result.Pair, *mapreduce.Pipeline, error) {
			opt := ridpairs.Options{Fn: similarity.Jaccard, Theta: 0.8, Parallelism: 2, MemoryBudget: budget, Env: env}
			res, err := ridpairs.SelfJoin(r, opt)
			if s != nil {
				res, err = ridpairs.Join(r, s, opt)
			}
			if err != nil {
				return nil, nil, err
			}
			return res.Pairs, res.Pipeline, nil
		},
		"vsmart": func(r, s *tokens.Collection, budget int64, env mapreduce.Env) ([]result.Pair, *mapreduce.Pipeline, error) {
			opt := vsmart.Options{Fn: similarity.Jaccard, Theta: 0.8, Parallelism: 2, MemoryBudget: budget, Env: env}
			res, err := vsmart.SelfJoin(r, opt)
			if s != nil {
				res, err = vsmart.Join(r, s, opt)
			}
			if err != nil {
				return nil, nil, err
			}
			return res.Pairs, res.Pipeline, nil
		},
		"approx": func(r, s *tokens.Collection, budget int64, env mapreduce.Env) ([]result.Pair, *mapreduce.Pipeline, error) {
			opt := minhash.Params{Theta: 0.8, Seed: 1, Parallelism: 2, MemoryBudget: budget, Env: env}
			res, err := minhash.SelfJoin(r, opt)
			if s != nil {
				res, err = minhash.Join(r, s, opt)
			}
			if err != nil {
				return nil, nil, err
			}
			return res.Pairs, res.Pipeline, nil
		},
	}
	for name, variant := range map[string]massjoin.Variant{"massjoin": massjoin.Merge, "massjoin-light": massjoin.MergeLight} {
		algos[name] = func(r, s *tokens.Collection, budget int64, env mapreduce.Env) ([]result.Pair, *mapreduce.Pipeline, error) {
			if s != nil {
				return nil, nil, nil // self-joins only
			}
			res, err := massjoin.SelfJoin(r, massjoin.Options{Fn: similarity.Jaccard, Theta: 0.8, Variant: variant,
				Parallelism: 2, MemoryBudget: budget, Env: env})
			if err != nil {
				return nil, nil, err
			}
			return res.Pairs, res.Pipeline, nil
		}
	}
	check := func(label string, f run, r, s *tokens.Collection) {
		var inMemory []result.Pair
		for _, budget := range []int64{-1, 1024} {
			pairs, p, err := f(r, s, budget, mapreduce.Env{SpillDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s, budget %d: %v", label, budget, err)
			}
			if p == nil {
				return
			}
			if spilled := p.Counter(mapreduce.CounterSpillRuns); (budget > 0) != (spilled > 0) {
				t.Fatalf("%s, budget %d: %d spills", label, budget, spilled)
			}
			if budget < 0 {
				inMemory = pairs
			} else if !reflect.DeepEqual(pairs, inMemory) {
				t.Fatalf("%s: %d pairs under 1 KiB, %d in memory, or they differ", label, len(pairs), len(inMemory))
			}
		}
	}
	c := dataset.Generate(dataset.PubMed().Scale(0.01), 1)
	r, s := splitRS(c)
	for name, f := range algos {
		check(name+", self", f, c, nil)
		check(name+", R-S", f, r, s)
	}
	for _, shape := range []struct {
		name     string
		profile  dataset.Profile
		rs       bool
		theta    float64
		vertical int
	}{
		{"self_pubmed_defaults", dataset.PubMed().Scale(0.05), false, 0.8, 30},
		{"rs_email_kernel", dataset.Email().Scale(0.2), true, 0.8, 8},
		{"self_wiki", dataset.Wiki().Scale(0.05), false, 0.9, 1},
	} {
		c, s := dataset.Generate(shape.profile, 1), (*tokens.Collection)(nil)
		if shape.rs {
			c, s = splitRS(c)
		}
		check(shape.name, fsjoin(shape.theta, shape.vertical, 10), c, s)
	}
}
