package experiments

import (
	"flag"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/plan"
)

// generatorFull lengthens TestGeneratedCells from its short tier-1 stream
// to the long one; `make property` sets it.
var generatorFull = flag.Bool("generator.full", false, "tune and measure the long generated-cell stream (60 cells) instead of the short one")

const (
	generatorSeed  = 7
	generatorShort = 10
	generatorLong  = 60
)

// The S=1 error band, Predicted / measured IterTime − 1, for the stream
// at generatorSeed: its long stream spans −1.94 % to +1.70 % today, and
// the band is ±2.5 %.
const s1ErrLo, s1ErrHi = -0.025, 0.025

// The number of plans per stream whose offloading fills some node past
// its host RAM (Cluster.HostMemory). No verdict models host memory yet
// (ROADMAP 1 (a)), so the count is pinned: a change that moves it moves
// which plans could run.
const hostOverShort, hostOverLong = 3, 23

// genCell is one generated workload: a catalog model of at most 22B
// parameters on one platform.
type genCell struct {
	model, platform string
	gpus, batch     int
	flash           bool
}

// misttune is the one-line command that tunes and measures c as the test
// does.
func (c genCell) misttune() string {
	return fmt.Sprintf("go run ./cmd/misttune -model %s -platform %s -gpus %d -batch %d -flash=%t", c.model, c.platform, c.gpus, c.batch, c.flash)
}

// generateCells draws n cells from a stream seeded with seed; a shorter
// stream is a prefix of a longer one.
func generateCells(seed int64, n int) []genCell {
	var models []string
	for _, name := range model.Names() {
		if cfg := model.MustByName(name); cfg.TotalParams() <= 22.5e9 {
			models = append(models, name)
		}
	}
	gpus := []int{2, 4, 8, 16, 24, 32, 40, 48, 56, 64}
	rng := rand.New(rand.NewSource(seed))
	cells := make([]genCell, n)
	for i := range cells {
		c := genCell{
			model:    models[rng.Intn(len(models))],
			platform: []string{"l4", "a100"}[rng.Intn(2)],
			gpus:     gpus[rng.Intn(len(gpus))],
			flash:    rng.Intn(2) == 0,
		}
		c.batch = c.gpus * (4 + rng.Intn(13))
		cells[i] = c
	}
	return cells
}

// TestGeneratedCells tunes a seeded stream of cells with MistSpace,
// measures each through baselines.Run, and holds the analyzer to the
// engine on cells no author picked. Per cell: a returned plan is never
// device OOM; at S=1 the prediction error stays inside [s1ErrLo, s1ErrHi];
// at S ≥ 2 it is negative. The last is a direction, not a band: pipelined
// plans are predicted 2–14 % fast and the cause is open (ROADMAP item 3),
// so a fix that brings them to the right side fails here and must move
// this pin. Per stream it asserts how many plans offload past a node's
// host RAM (hostOverShort, hostOverLong) and logs the error by S, the
// S ≥ 2 share and the cells with no plan. A failing cell prints as the
// misttune command that reproduces it.
func TestGeneratedCells(t *testing.T) {
	n, wantHostOver := generatorShort, hostOverShort
	if *generatorFull {
		n, wantHostOver = generatorLong, hostOverLong
	}
	type errStat struct {
		n        int
		min, max float64
	}
	byS := map[int]*errStat{}
	var noPlan, hostOver, pipelined int
	for _, c := range generateCells(generatorSeed, n) {
		cl, seq, err := hardware.ClusterByName(c.platform, c.gpus)
		if err != nil {
			t.Fatalf("%s: %v", c.misttune(), err)
		}
		w := plan.Workload{Model: model.MustByName(c.model), Seq: seq, Flash: c.flash, GlobalBatch: c.batch}
		out, err := baselines.Run(w, cl, core.MistSpace())
		if err != nil {
			t.Fatalf("%s: %v", c.misttune(), err)
		}
		if out.Tune == nil {
			noPlan++
			continue
		}
		if out.OOM {
			t.Errorf("%s: the returned plan is device OOM on the engine", c.misttune())
			continue
		}
		s := out.Tune.Plan.NumStages()
		e := out.Tune.Predicted/out.Meas.IterTime - 1
		switch {
		case s == 1 && (e < s1ErrLo || e > s1ErrHi):
			t.Errorf("%s: S=1 error %+.2f %%, want within [%+.1f %%, %+.1f %%]", c.misttune(), 100*e, 100*s1ErrLo, 100*s1ErrHi)
		case s >= 2 && e >= 0:
			t.Errorf("%s: S=%d error %+.2f %%, want < 0 (ROADMAP item 3)", c.misttune(), s, 100*e)
		}
		if s >= 2 {
			pipelined++
		}
		st := byS[s]
		if st == nil {
			st = &errStat{min: e, max: e}
			byS[s] = st
		}
		st.n++
		st.min, st.max = min(st.min, e), max(st.max, e)

		for node, states := range out.Meas.HostStates {
			if states+out.Meas.HostStash[node] > cl.HostMemory() {
				hostOver++
				break
			}
		}
	}
	var ss []int
	for s := range byS {
		ss = append(ss, s)
	}
	sort.Ints(ss)
	var rows []string
	for _, s := range ss {
		st := byS[s]
		rows = append(rows, fmt.Sprintf("S=%d: %d cells, %+.2f %% to %+.2f %%", s, st.n, 100*st.min, 100*st.max))
	}
	t.Logf("seed %d, %d cells: %s; S ≥ 2 share %d of %d; no plan %d; plans past host RAM %d",
		generatorSeed, n, strings.Join(rows, "; "), pipelined, n-noPlan, noPlan, hostOver)
	if hostOver != wantHostOver {
		t.Errorf("%d plans offload past a node's host RAM, want %d", hostOver, wantHostOver)
	}
}
