package schedule

import "repro/internal/symbolic"

// BuildCounts reports how many times the analyzer has fetched its
// model's trace (the layer, pre and post sections, symbolic in b and TP)
// from the process's table: once, on first use, whether that fetch traced
// the model or found an earlier analyzer's trace of its (model, seq,
// flash). The process's graph.Trace passes are nTraces.
func (a *Analyzer) BuildCounts() (traced int) { return int(a.nTraced.Load()) }

// VariantPrograms reports how many distinct compiled programs the
// analyzer's stage programs point at: one per structural variant its
// shapes met. Call it once the analyzer's pricing has finished.
func (a *Analyzer) VariantPrograms() int {
	a.programs.mu.Lock()
	defer a.programs.mu.Unlock()
	progs := map[*symbolic.Program]bool{}
	for _, e := range a.programs.m {
		if e.v.prog != nil {
			progs[e.v.prog] = true
		}
	}
	return len(progs)
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

// EvaluatePreparedInto is evaluateSets over a list of one batch; the
// returned slice aliases dst when its capacity suffices.
func (a *Analyzer) EvaluatePreparedInto(dst []Result, shape StageShape, b *Batch, sc *EvalScratch) ([]Result, error) {
	dsts := [][]Result{dst}
	if err := a.evaluateSets(shape, []*Batch{b}, dsts, sc); err != nil {
		return nil, err
	}
	return dsts[0], nil
}
