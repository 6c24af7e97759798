package main

import (
	"strconv"

	"fsjoin"
	"fsjoin/internal/dataset"
	"fsjoin/internal/tokens"
)

// kind is the shape of a workload's measured loop.
type kind int

const (
	// kindJoin times repeated calls of one public batch join.
	kindJoin kind = iota
	// kindServe times small join jobs sent by closed-loop clients through
	// an fsjoin.Server.
	kindServe
	// kindProbe times a closed-loop mix of Probe and Insert calls on a
	// durable index.
	kindProbe
)

// workload is one named input and the public call made on it. The scales
// give join calls of about a second on the two-core sizing host, so that a
// fifteen-second run times ten or more; README.md records why each one
// exists and which layer does most of its work.
type workload struct {
	name    string
	why     string
	kind    kind
	profile dataset.Profile
	// rs splits the collection into R (even rids) and S (odd rids).
	rs  bool
	opt fsjoin.Options
}

var workloads = []workload{
	{
		name:    "self_pubmed_defaults",
		why:     "every public default on PubMed: 1 800 candidate partials per result pair, so the verification shuffle and combine are half the call",
		profile: dataset.PubMed().Scale(1.0),
		opt:     fsjoin.Options{Threshold: 0.8},
	},
	{
		name:    "rs_email_kernel",
		why:     "R-S join of long Email records in 8 fragments: the fragment kernel and its bitmap filter are the largest share of the work",
		profile: dataset.Email().Scale(8),
		rs:      true,
		opt:     fsjoin.Options{Threshold: 0.8, VerticalPartitions: 8},
	},
	{
		name:    "self_wiki_inmem",
		why:     "the control: many short Wiki records in one vertical fragment, token ordering is two thirds of the call and the fragment kernel under a tenth; a kernel or filter change must not move it",
		profile: dataset.Wiki().Scale(10),
		opt:     fsjoin.Options{Threshold: 0.9, VerticalPartitions: 1},
	},
	{
		name:    "self_wiki_spill",
		why:     "self_wiki_inmem under a 256 KiB memory budget: the same shuffle through sorted runs and the k-way merge",
		profile: dataset.Wiki().Scale(10),
		opt:     fsjoin.Options{Threshold: 0.9, VerticalPartitions: 1, MemoryBudget: 256 << 10},
	},
	{
		name:    "serve_smalljobs",
		kind:    kindServe,
		why:     "500-record jobs, 8 collections in turn, from 2 closed-loop clients through a Server: fixed cost of three MR jobs and admission is everything",
		profile: dataset.Wiki().Scale(0.1),
		opt:     fsjoin.Options{Threshold: 0.8, LocalParallelism: 1},
	},
	{
		name:    "probe_mixed",
		kind:    kindProbe,
		why:     "90% Probe, 10% durable Insert or Delete from one client on a 20 000-record index: reads beside writes, overlay growth, compactions",
		profile: dataset.Wiki().Scale(4),
		opt:     fsjoin.Options{Threshold: 0.8},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// input is what one workload hands the library: pre-tokenised string sets,
// as a user would hold them. ids keeps the generator's token ids beside the
// strings for the oracle and the layer replay; the library never sees it.
type input struct {
	r, s       [][]string
	idsR, idsS *tokens.Collection
	records    int
	tokens     int
}

// generate builds the workload's input from the seed: the synthetic
// collection, each token id rendered as the string "t<id>".
func generate(w workload, seed int64, scale float64) *input {
	c := dataset.Generate(w.profile.Scale(scale), seed)
	in := &input{records: c.Len(), tokens: c.TotalTokens(), idsR: c}
	names := make([]string, int(c.MaxToken())+1)
	sets := make([][]string, len(c.Records))
	for i, rec := range c.Records {
		set := make([]string, len(rec.Tokens))
		for j, t := range rec.Tokens {
			if names[t] == "" {
				names[t] = tokenName(t)
			}
			set[j] = names[t]
		}
		sets[i] = set
	}
	in.r = sets
	if !w.rs {
		return in
	}
	in.r, in.s = nil, nil
	in.idsR, in.idsS = &tokens.Collection{}, &tokens.Collection{}
	for i, rec := range c.Records {
		side, ids := &in.r, in.idsR
		if i%2 == 1 {
			side, ids = &in.s, in.idsS
		}
		rec.RID = int32(len(ids.Records))
		ids.Records = append(ids.Records, rec)
		*side = append(*side, sets[i])
	}
	return in
}

// tokenName renders a token id as the string the library is given.
func tokenName(t tokens.ID) string { return "t" + strconv.FormatUint(uint64(t), 10) }

// collections interns the input through a fresh public Dictionary.
func (in *input) collections() (r, s *fsjoin.Collection) {
	d := fsjoin.NewDictionary()
	r = d.NewCollection(in.r)
	if in.s != nil {
		s = d.NewCollection(in.s)
	}
	return r, s
}
