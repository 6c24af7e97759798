package experiments

import (
	"fmt"

	"fsjoin/internal/core"
	"fsjoin/internal/dataset"
	"fsjoin/internal/fragjoin"
	"fsjoin/internal/similarity"
)

// CostModel checks Lemma 5's cost decomposition against measured job
// metrics: map cost and shuffle cost proportional to Σ|s_i| (no
// duplication), and the candidate-dependent verification cost far below the
// filtering cost.
func (r *Runner) CostModel() error {
	theta := 0.8
	head := []string{"dataset", "input tokens", "filter-map records", "lemma5 est. segments", "filter shuffle tokens", "dup-free", "comparisons", "lemma5 est. comparisons", "verify/filter time"}
	var rows [][]string
	for _, p := range dataset.Profiles() {
		c := r.small(p)
		// Duplicate-freedom is a property of the vertical partitioning, so
		// the check runs FS-Join-V; horizontal partitioning replicates
		// boundary records by design.
		opt := fsOptions(theta, 10)
		opt.HorizontalPivots = 0
		res, _, err := runFS(c, opt)
		if err != nil {
			return err
		}
		stages := res.Pipeline.Stages()
		filter := stages[1]
		verify := stages[2]
		inputTokens := int64(c.TotalTokens())
		// Each shuffled segment value carries 18 framing/meta bytes plus 4
		// bytes per token plus key/record overhead; recover the token count
		// from the segment records and sizes.
		segTokens := (filter.ShuffleBytes - filter.ShuffleRecords*(18+8+8)) / 4
		dupFree := "yes"
		if segTokens > inputTokens*11/10 { // >10% would mean duplication
			dupFree = "NO"
		}
		ratio := verify.SimulatedTotalTime.Seconds() / filter.SimulatedTotalTime.Seconds()
		est := core.EstimateCost(c, similarity.Jaccard, theta, 30, 1.0)
		rows = append(rows, []string{
			p.Name,
			fmt.Sprintf("%d", inputTokens),
			fmt.Sprintf("%d", filter.ShuffleRecords),
			fmt.Sprintf("%d", est.ExpectedSegments),
			fmt.Sprintf("%d", segTokens),
			dupFree,
			fmt.Sprintf("%d", res.Pipeline.Counter(fragjoin.CtrComparisons)),
			fmt.Sprintf("%d", est.CandidateRecords),
			fmt.Sprintf("%.2f", ratio),
		})
	}
	printTable(r.cfg.Out, "Lemma 5 check: FS-Join cost decomposition (theta=0.8)", head, rows)
	return nil
}

// experimentsByName maps experiment ids to their runners.
func (r *Runner) experimentsByName() []struct {
	Name string
	Run  func() error
} {
	return []struct {
		Name string
		Run  func() error
	}{
		{"table3", r.Table3},
		{"table1", r.Table1},
		{"fig6", r.Fig6},
		{"fig7", r.Fig7},
		{"fig8", r.Fig8},
		{"fig9", r.Fig9},
		{"fig10", r.Fig10},
		{"fig11", r.Fig11},
		{"fig12", r.Fig12},
		{"fig13", r.Fig13},
		{"table4", r.Table4},
		{"soundness", r.Soundness},
		{"approx", r.Approx},
		{"cost", r.CostModel},
	}
}

// Names lists the available experiment ids in presentation order.
func (r *Runner) Names() []string {
	var out []string
	for _, e := range r.experimentsByName() {
		out = append(out, e.Name)
	}
	return out
}

// Run executes one experiment by id.
func (r *Runner) Run(name string) error {
	for _, e := range r.experimentsByName() {
		if e.Name == name {
			return e.Run()
		}
	}
	return fmt.Errorf("experiments: unknown experiment %q (have %v)", name, r.Names())
}

// All runs every experiment in presentation order.
func (r *Runner) All() error {
	for _, e := range r.experimentsByName() {
		if err := e.Run(); err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
	}
	return nil
}
