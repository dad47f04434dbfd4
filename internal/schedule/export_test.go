package schedule

// BuildCounts reports how many trace passes (layer, pre and post graphs
// of one TP degree) and variant compilations the analyzer has run.
func (a *Analyzer) BuildCounts() (traced, compiled int) {
	return int(a.nTraced.Load()), int(a.nCompiled.Load())
}
