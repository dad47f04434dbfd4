package core

import (
	"reflect"
	"strings"
	"testing"
)

// TestSpaceByName checks the search-space table against the six
// constructors: each name, in any case, builds its constructor's space,
// which carries that name, and an unknown name is an error.
func TestSpaceByName(t *testing.T) {
	want := map[string]func() Space{
		"mist":      MistSpace,
		"megatron":  MegatronSpace,
		"deepspeed": DeepSpeedSpace,
		"aceso":     AcesoSpace,
		"3d":        ThreeDSpace,
		"uniform":   UniformHeuristicSpace,
	}
	if len(spaces) != len(want) {
		t.Errorf("%d named spaces, want %d", len(spaces), len(want))
	}
	for n, build := range want {
		for _, name := range []string{n, strings.ToUpper(n)} {
			got, err := SpaceByName(name)
			if err != nil {
				t.Fatalf("SpaceByName(%q): %v", name, err)
			}
			if got.Name != n {
				t.Errorf("SpaceByName(%q).Name = %q, want %q", name, got.Name, n)
			}
			if !reflect.DeepEqual(got, build()) {
				t.Errorf("SpaceByName(%q) = %+v, want %+v", name, got, build())
			}
		}
	}
	for _, name := range []string{"", "alpa", "mist "} {
		if _, err := SpaceByName(name); err == nil {
			t.Errorf("SpaceByName(%q) accepted an unknown name", name)
		}
	}
}
