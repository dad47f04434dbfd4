package serve

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/plan"
)

// TestNormalizeResolvesLikeTheConstructors pins what normalize resolves
// for every platform, mesh and space the service accepts, written out
// with the literal constructors: the L4 platform (the default) at seq
// 2048 and A100 at 4096 unless the spec sets one, any case, and each
// named space (mist by default). It also pins the 400 texts of an
// unknown platform, an unknown space and a GPU count no mesh holds.
func TestNormalizeResolvesLikeTheConstructors(t *testing.T) {
	type platform struct {
		build func(nodes, gpusPerNode int) *hardware.Cluster
		seq   int
	}
	platforms := map[string]platform{
		"":     {hardware.L4Cluster, 2048},
		"l4":   {hardware.L4Cluster, 2048},
		"L4":   {hardware.L4Cluster, 2048},
		"a100": {hardware.A100Cluster, 4096},
		"A100": {hardware.A100Cluster, 4096},
	}
	spaces := map[string]func() core.Space{
		"":          core.MistSpace,
		"mist":      core.MistSpace,
		"megatron":  core.MegatronSpace,
		"deepspeed": core.DeepSpeedSpace,
		"DeepSpeed": core.DeepSpeedSpace,
		"aceso":     core.AcesoSpace,
		"3d":        core.ThreeDSpace,
		"uniform":   core.UniformHeuristicSpace,
	}
	meshes := map[int][2]int{1: {1, 1}, 2: {1, 2}, 4: {1, 4}, 8: {1, 8}, 16: {2, 8}, 32: {4, 8}}
	cfg := model.MustByName("gpt3-1.3b")
	for pname, p := range platforms {
		for gpus, mesh := range meshes {
			for sname, space := range spaces {
				for _, seq := range []int{0, 1024} {
					ws := WorkloadSpec{Model: "gpt3-1.3b", Platform: pname, GPUs: gpus, Batch: 8, Seq: seq, Space: sname}
					name := fmt.Sprintf("%q/%d/%q/seq=%d", pname, gpus, sname, seq)
					w, cl, sp, err := ws.normalize()
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					wantSeq := seq
					if wantSeq == 0 {
						wantSeq = p.seq
					}
					if want := (plan.Workload{Model: cfg, Seq: wantSeq, Flash: true, GlobalBatch: 8}); !reflect.DeepEqual(w, want) {
						t.Errorf("%s: workload %+v, want %+v", name, w, want)
					}
					if want := p.build(mesh[0], mesh[1]); !reflect.DeepEqual(cl, want) {
						t.Errorf("%s: cluster %+v, want %+v", name, cl, want)
					}
					if want := space(); !reflect.DeepEqual(sp, want) {
						t.Errorf("%s: space %+v, want %+v", name, sp, want)
					}
					if ws.Seq != wantSeq || (pname == "" && ws.Platform != "l4") || (sname == "" && ws.Space != "mist") {
						t.Errorf("%s: defaults left the spec as %+v", name, ws)
					}
				}
			}
		}
	}

	for _, c := range []struct {
		ws   WorkloadSpec
		want string
	}{
		{WorkloadSpec{Platform: "h100", GPUs: 2}, `unknown platform "h100"`},
		{WorkloadSpec{Platform: "h100", GPUs: 12}, "hardware: GPU count 12 not a multiple of 8"},
		{WorkloadSpec{GPUs: 0}, "hardware: non-positive GPU count 0"},
		{WorkloadSpec{GPUs: 2, Space: "alpa"}, `unknown search space "alpa"`},
	} {
		ws := c.ws
		ws.Model, ws.Batch = "gpt3-1.3b", 8
		if _, _, _, err := ws.normalize(); err == nil || err.Error() != c.want {
			t.Errorf("normalize(%+v) error %v, want %q", c.ws, err, c.want)
		}
	}
}
