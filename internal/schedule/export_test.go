package schedule

// BuildCounts reports how many trace passes (layer, pre and post graphs
// of one TP degree) and variant compilations the analyzer has run.
func (a *Analyzer) BuildCounts() (traced, compiled int) {
	return int(a.nTraced.Load()), int(a.nCompiled.Load())
}

// TuplePasses reports how many tuple passes (the tape from the offload
// tuple's stage plus the overlap composition; priceGroups runs one per
// tuple group of a call) the analyzer has run.
func (a *Analyzer) TuplePasses() int { return int(a.nTuplePasses.Load()) }

// RegionsPredicted reports how many overlap regions the analyzer's
// priceGroups calls have predicted: a tuple pass predicts a region class
// only at the first tuple of its call with the class's projection
// (regionClasses).
func (a *Analyzer) RegionsPredicted() int { return int(a.nRegionsPredicted.Load()) }

// EvaluatePreparedInto is EvaluateSets over a list of one batch; the
// returned slice aliases dst when its capacity suffices.
func (a *Analyzer) EvaluatePreparedInto(dst []Result, shape StageShape, b *Batch, sc *EvalScratch) ([]Result, error) {
	dsts := [][]Result{dst}
	if err := a.EvaluateSets(shape, []*Batch{b}, dsts, sc); err != nil {
		return nil, err
	}
	return dsts[0], nil
}
