package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/interference"
	"repro/internal/model"
	"repro/internal/opdb"
	"repro/internal/plan"
	"repro/internal/schedule"
	"repro/internal/trainsim"
)

func init() {
	register("fig16", fig16)
	register("accuracy", accuracy)
}

// fig16 reproduces the tuning-time study (Figure 16): wall-clock tuning
// time as optimizations are enabled one by one, plus an estimate of what
// the same sweep would cost with a per-configuration re-simulation
// analyzer (the Proteus/Alpa approach the paper contrasts against:
// ~6 s per configuration vs Mist's batched value substitution).
func fig16(scale Scale) (*Table, error) {
	name, gpus, batch := "gpt3-22b", 32, 512
	if scale == Small {
		name, gpus, batch = "gpt3-2.7b", 4, 32
	}
	cl, seq, err := hardware.ClusterByName("l4", gpus)
	if err != nil {
		return nil, err
	}
	w := plan.Workload{Model: model.MustByName(name), Seq: seq, Flash: true, GlobalBatch: batch}

	// The incremental ladder of Figure 16's orange bars.
	threeD := core.ThreeDSpace()
	zero := threeD
	zero.Name = "+zero"
	zero.ZeROLevels = []int{0, 1, 2, 3}
	ckpt := zero
	ckpt.Name = "+ckpt"
	ckpt.TuneCkpt = true
	oo := ckpt
	oo.Name = "+oo"
	oo.TuneOO = true
	gog := oo
	gog.Name = "+go"
	gog.TuneGO = true
	po := gog
	po.Name = "+po"
	po.TuneWO = true
	ao := po
	ao.Name = "+ao"
	ao.TuneAO = true
	ladder := []core.Space{threeD, zero, ckpt, oo, gog, po, ao}

	// Cost of one configuration under a re-simulation analyzer: rebuild
	// the symbolic trace + program for every query (no cache), as a
	// traditional simulator would re-instantiate the model.
	naivePer := naivePerConfigSeconds(w, cl)

	t := &Table{
		Title:  fmt.Sprintf("Figure 16: tuning time, %s on %d GPUs", name, gpus),
		Header: []string{"space", "candidates-priced", "tuning-time", "per-candidate", "naive-analyzer-est"},
	}
	for _, space := range ladder {
		tn, err := core.New(w, cl, space)
		if err != nil {
			return nil, err
		}
		res, err := tn.Tune()
		if err != nil {
			t.Add(space.Name, "-", "-", "-", "-")
			continue
		}
		per := res.Elapsed.Seconds() / math.Max(1, float64(res.Candidates))
		naiveEst := time.Duration(float64(res.Candidates) * naivePer * float64(time.Second))
		t.Add(space.Name, res.Candidates, res.Elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.1fus", per*1e6), naiveEst.Round(time.Second).String())
	}
	t.Notes = append(t.Notes,
		"paper: Alpa 10106s; Aceso 201s; Mist 92s (3D) to 1083s (full space) for GPT-3 22B on 32 GPUs",
		"naive-analyzer-est extrapolates the same candidate count at a per-configuration re-simulation cost (Proteus-style)",
		"candidates-priced is what the search priced, not the size of the space (Figure 5 has the exact sizes): an (S, G) pair whose compute floor already exceeds the best plan found is skipped unpriced, so a rung whose wider space lands a good plan in its first wave of pairs (+zero at Small scale) can price fewer candidates than the rung below it")
	return t, nil
}

// naivePerConfigSeconds measures the cost of pricing one configuration
// when the analyzer must re-trace and re-compile per query.
func naivePerConfigSeconds(w plan.Workload, cl *hardware.Cluster) float64 {
	intf := interference.NewModel()
	shape := schedule.StageShape{B: 1, DP: 1, TP: 1, NumStages: 1, StageIdx: 0, GradAccum: 1,
		HasPre: true, HasPost: true}
	k := schedule.Knobs{Layers: w.Model.Layers, Ckpt: w.Model.Layers}
	const trials = 5
	start := time.Now()
	for i := 0; i < trials; i++ {
		an := schedule.NewAnalyzer(w.Model, w.Seq, w.Flash, cl, opdb.New(cl.GPU), intf)
		if _, err := an.Evaluate(shape, k); err != nil {
			return 0.01
		}
	}
	return time.Since(start).Seconds() / trials
}

// accuracy reproduces the §6.6 prediction-accuracy study: sample tuned
// plans across diverse spaces, then compare the symbolic analyzer's
// runtime (Eq. 1) and per-stage memory predictions against the
// discrete-event engine. The paper reports 1.79% mean runtime error and
// 2.10% mean memory error on real hardware.
func accuracy(scale Scale) (*Table, error) {
	name, gpus := "gpt3-2.7b", 8
	batches := []int{16, 32, 64}
	if scale == Full {
		name, gpus = "gpt3-7b", 8
		batches = []int{32, 64, 128, 256}
	}
	cl, seq, err := hardware.ClusterByName("l4", gpus)
	if err != nil {
		return nil, err
	}

	spaces := []core.Space{core.ThreeDSpace(), threeDCkptSpace(), core.DeepSpeedSpace(), core.MistSpace()}

	t := &Table{
		Title:  "Section 6.6: prediction accuracy (analyzer vs execution engine)",
		Header: []string{"plan", "pred-iter(s)", "meas-iter(s)", "time-err", "mem-err(max-stage)"},
	}
	var timeErrs, memErrs []float64
	rng := rand.New(rand.NewSource(17))
	for _, batch := range batches {
		w := plan.Workload{Model: model.MustByName(name), Seq: seq, Flash: true, GlobalBatch: batch}
		for _, space := range spaces {
			tn, err := core.New(w, cl, space)
			if err != nil {
				return nil, err
			}
			res, err := tn.Tune()
			if err != nil {
				continue
			}
			p := res.Plan
			// Perturb offload knobs slightly to sample off-optimum points.
			if rng.Intn(2) == 0 && space.TuneAO {
				for i := range p.Stages {
					p.Stages[i].Knobs.AO = math.Min(1, p.Stages[i].Knobs.AO+0.25)
				}
			}
			pred, err := tn.PredictPlan(p)
			if err != nil {
				return nil, err
			}
			m, err := trainsim.New(w, cl, tn.An).Measure(p)
			if err != nil {
				return nil, err
			}
			te := math.Abs(pred-m.IterTime) / m.IterTime
			timeErrs = append(timeErrs, te)
			maxMe := 0.0
			for si, st := range p.Stages {
				r, err := tn.An.Evaluate(st.Shape, st.Knobs)
				if err != nil {
					return nil, err
				}
				me := math.Abs(r.PeakMem-m.PeakMem[si]) / m.PeakMem[si]
				if me > maxMe {
					maxMe = me
				}
			}
			memErrs = append(memErrs, maxMe)
			t.Add(fmt.Sprintf("%s/B%d/%s", name, batch, space.Name), pred, m.IterTime,
				fmt.Sprintf("%.1f%%", 100*te), fmt.Sprintf("%.1f%%", 100*maxMe))
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("mean runtime error %.2f%%, mean memory error %.2f%% (paper: 1.79%% / 2.10%% vs real GPUs)",
			100*mean(timeErrs), 100*mean(memErrs)),
	)
	return t, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
