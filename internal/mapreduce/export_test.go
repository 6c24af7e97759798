package mapreduce

// ChainsViaRun makes every pipeline run in env execute Feed as Run and
// Chain as Run of IdentityMapper over the previous Output: the reference a
// chain is held to.
func ChainsViaRun(env *Env) { env.viaRun = true }

// StageCounters returns each stage's counter snapshot, in stage order.
func StageCounters(p *Pipeline) []map[string]int64 {
	out := make([]map[string]int64, len(p.stages))
	for i, s := range p.stages {
		out[i] = s.counters
	}
	return out
}
