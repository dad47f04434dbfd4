package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/interference"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/plan"
)

func init() {
	register("ablation-pareto", ablationPareto)
	register("ablation-solver", ablationSolver)
	register("ablation-interference", ablationInterference)
	register("ablation-schedule", ablationSchedule)
	register("ablation-hetero", ablationHetero)
}

// ablationHetero compares uniform per-stage device splits against the
// paper's heterogeneous (n_i, m_i) assignment: the device-aware solver
// can give the embedding/head stages more or fewer GPUs and explore
// non-divisor pipeline depths.
func ablationHetero(scale Scale) (*Table, error) {
	name, gpus, batch := "gpt3-7b", 8, 64
	if scale == Small {
		name, gpus, batch = "gpt3-2.7b", 4, 16
	}
	cl, seq, err := hardware.ClusterByName("l4", gpus)
	if err != nil {
		return nil, err
	}
	w := plan.Workload{Model: model.MustByName(name), Seq: seq, Flash: true, GlobalBatch: batch}
	t := &Table{
		Title:  "Ablation: uniform vs heterogeneous per-stage device assignment",
		Header: []string{"assignment", "predicted-iter(s)", "throughput", "S", "devices-per-stage", "tuning-time"},
	}
	for _, hetero := range []bool{false, true} {
		space := core.MistSpace()
		space.HeterogeneousDevices = hetero
		out, err := baselines.Run(w, cl, space)
		if err != nil {
			return nil, err
		}
		if out.Tune == nil {
			return nil, core.ErrNoFeasiblePlan
		}
		res := out.Tune
		devs := ""
		for i, st := range res.Plan.Stages {
			if i > 0 {
				devs += "/"
			}
			devs += fmt.Sprint(st.Shape.Devices())
		}
		label := "uniform"
		if hetero {
			label = "heterogeneous"
		}
		t.Add(label, res.Predicted, out.Throughput, res.Plan.NumStages(), devs,
			res.Elapsed.Round(time.Millisecond).String())
	}
	t.Notes = append(t.Notes,
		"heterogeneous assignment is a superset: its objective can only improve, at higher tuning cost")
	return t, nil
}

// ablationPareto studies the Pareto-frontier sample count (the f index
// budget of Eq. 3): too few samples lose (t, d) trade-off points and can
// mis-partition the pipeline; beyond a handful, returns diminish. This
// validates the design choice DESIGN.md "core: one sweep per pair, one
// inter-stage DP" calls out.
func ablationPareto(scale Scale) (*Table, error) {
	name, gpus, batch := "gpt3-7b", 8, 128
	if scale == Small {
		name, gpus, batch = "gpt3-2.7b", 4, 32
	}
	cl, seq, err := hardware.ClusterByName("l4", gpus)
	if err != nil {
		return nil, err
	}
	w := plan.Workload{Model: model.MustByName(name), Seq: seq, Flash: true, GlobalBatch: batch}
	t := &Table{
		Title:  "Ablation: Pareto frontier sample count K (Eq. 3/4)",
		Header: []string{"K", "predicted-iter(s)", "measured-throughput", "tuning-time"},
	}
	for _, k := range []int{1, 2, 3, 5, 8} {
		space := core.MistSpace()
		space.ParetoSamples = k
		out, err := baselines.Run(w, cl, space)
		if err != nil {
			return nil, err
		}
		if out.Tune == nil {
			t.Add(k, "infeasible", "-", "-")
			continue
		}
		t.Add(k, out.Tune.Predicted, out.Throughput, out.Tune.Elapsed.Round(time.Millisecond).String())
	}
	t.Notes = append(t.Notes,
		"K=1 keeps only one (t,d) point per frontier and can lose the plan that hides deltas in bubbles")
	return t, nil
}

// ablationSolver compares the inter-stage solvers (exact DP, the paper's
// MILP) on objective value and wall-clock time, and fails unless they
// reach the same optimum (1e-6 relative): the default DP is a lossless
// speedup over the MILP. The branch-and-bound oracle both are checked
// against on more cells is core's test code.
func ablationSolver(scale Scale) (*Table, error) {
	name, gpus, batch := "gpt3-7b", 8, 64
	if scale == Small {
		name, gpus, batch = "gpt3-1.3b", 4, 16
	}
	cl, seq, err := hardware.ClusterByName("l4", gpus)
	if err != nil {
		return nil, err
	}
	w := plan.Workload{Model: model.MustByName(name), Seq: seq, Flash: true, GlobalBatch: batch}
	space := core.DeepSpeedSpace() // mid-sized space keeps the MILP quick
	base, err := core.New(w, cl, space)
	if err != nil {
		return nil, err
	}
	solvers := []struct {
		name string
		tn   *core.Tuner
	}{
		{"dp (default)", base},
		{"milp (paper)", &core.Tuner{W: w, Cluster: cl, An: base.An, Space: space, UseMILP: true}},
	}
	t := &Table{
		Title:  "Ablation: inter-stage solver (same optimum, different cost)",
		Header: []string{"solver", "objective(s)", "tuning-time"},
	}
	var obj [2]float64
	for i, s := range solvers {
		res, err := s.tn.Tune()
		if err != nil {
			return nil, err
		}
		obj[i] = res.Predicted
		t.Add(s.name, res.Predicted, res.Elapsed.Round(time.Millisecond).String())
	}
	if math.Abs(obj[0]-obj[1]) > 1e-6*obj[1] {
		return nil, fmt.Errorf("DP objective %v, MILP %v: the inter-stage solvers disagree", obj[0], obj[1])
	}
	return t, nil
}

// ablationInterference quantifies what overlap/interference awareness is
// worth in prediction quality: the fitted Algorithm 1 model vs assuming
// perfect overlap (max of channels) vs full serialization (sum), each
// measured against the fluid oracle.
func ablationInterference(scale Scale) (*Table, error) {
	samples := 200
	if scale == Full {
		samples = 2000
	}
	t := &Table{
		Title:  "Ablation: interference model vs naive composition (mean |rel err| vs fluid oracle)",
		Header: []string{"platform", "algorithm-1(fitted)", "perfect-overlap(max)", "serialized(sum)"},
	}
	for _, p := range []struct {
		name  string
		fluid *interference.Fluid
	}{
		{"pcie(l4)", interference.PCIeFluid()},
		{"nvlink(a100)", interference.NVLinkFluid()},
	} {
		fitted := interference.Fit(p.fluid, 24, rand.New(rand.NewSource(7)))
		perfect := interference.NewModel() // all factors 1 => max
		evalRng := rand.New(rand.NewSource(99))
		fittedErr := interference.MeanRelError(fitted, p.fluid, samples, evalRng)
		evalRng = rand.New(rand.NewSource(99))
		perfectErr := interference.MeanRelError(perfect, p.fluid, samples, evalRng)
		evalRng = rand.New(rand.NewSource(99))
		sumErr := meanRelErrSerialized(p.fluid, samples, evalRng)
		t.Add(p.name,
			fmt.Sprintf("%.1f%%", 100*fittedErr),
			fmt.Sprintf("%.1f%%", 100*perfectErr),
			fmt.Sprintf("%.1f%%", 100*sumErr))
	}
	t.Notes = append(t.Notes,
		"Shortcoming #1 in numbers: both naive compositions mis-predict overlapped regions; the fitted model tracks the oracle")
	return t, nil
}

// meanRelErrSerialized measures the serialized (sum of channels)
// composition against the fluid oracle.
func meanRelErrSerialized(oracle *interference.Fluid, samplesPerCombo int, rng *rand.Rand) float64 {
	total, n := 0.0, 0
	for _, mask := range interference.AllCombinations() {
		for i := 0; i < samplesPerCombo; i++ {
			var x interference.Times
			sum := 0.0
			for ch := interference.Channel(0); ch < interference.NumChannels; ch++ {
				if mask.Has(ch) {
					v := 0.1 + rng.Float64()*9.9
					x[ch] = v
					sum += v
				}
			}
			truth := oracle.Run(x)
			total += abs(sum-truth) / truth
			n++
		}
	}
	return total / float64(n)
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// ablationSchedule compares 1F1B (Mist's schedule) against GPipe on the
// same per-stage costs: similar makespan, very different peak stash
// requirements (GPipe holds all G microbatches in flight).
func ablationSchedule(scale Scale) (*Table, error) {
	gs := []int{4, 8, 16, 32}
	if scale == Small {
		gs = []int{4, 8}
	}
	t := &Table{
		Title:  "Ablation: 1F1B vs GPipe schedule (uniform 4-stage pipeline)",
		Header: []string{"G", "1f1b-makespan", "gpipe-makespan", "1f1b-inflight(stage0)", "gpipe-inflight"},
	}
	stages := make([]pipeline.MicrobatchCost, 4)
	for i := range stages {
		stages[i] = pipeline.MicrobatchCost{Fwd: 1, Bwd: 2, FirstExtra: 0.3, LastExtra: 0.2}
	}
	for _, g := range gs {
		r1, err := pipeline.Play(stages, pipeline.OneFOneB(len(stages), g))
		if err != nil {
			return nil, err
		}
		rg, err := pipeline.Play(stages, pipeline.GPipe(len(stages), g))
		if err != nil {
			return nil, err
		}
		t.Add(g, r1.Makespan, rg.Makespan, pipeline.InFlight(r1.Order[0]), pipeline.InFlight(rg.Order[0]))
	}
	t.Notes = append(t.Notes,
		"1F1B bounds in-flight stashes by min(S, G) per stage; GPipe scales them with G, which is why all systems in the paper schedule 1F1B")
	return t, nil
}
