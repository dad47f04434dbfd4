package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/plan"
	"repro/internal/schedule"
)

// tinyPlan builds a syntactically complete plan; store tests don't need
// it to be feasible, only representable.
func tinyPlan(stages int) *plan.Plan {
	p := &plan.Plan{GradAccum: 2}
	for i := 0; i < stages; i++ {
		p.Stages = append(p.Stages, plan.Stage{
			Shape: schedule.StageShape{
				B: 2, DP: 1, TP: 1, NumStages: stages, StageIdx: i,
				GradAccum: 2, HasPre: i == 0, HasPost: i == stages-1,
			},
			Knobs: schedule.Knobs{Layers: 12, Ckpt: 6},
		})
	}
	return p
}

func fp(model string, gpus, batch int) Fingerprint {
	return Fingerprint{Model: model, Platform: "l4", GPUs: gpus, Batch: batch, Seq: 2048, Flash: true, Space: "mist"}
}

func TestPutGetAndVersioning(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f := fp("gpt3-2.7b", 4, 32)
	if _, ok := s.Get(f); ok {
		t.Fatal("hit on empty store")
	}
	if _, err := s.Put(Record{Fingerprint: f, Plan: tinyPlan(2), Predicted: 1.5, PredThroughput: 21.3}); err != nil {
		t.Fatal(err)
	}
	rec, ok := s.Get(f)
	if !ok || rec.Version != 1 || rec.PredThroughput != 21.3 {
		t.Fatalf("get after put: ok=%v rec=%+v", ok, rec)
	}
	if rec.UpdatedAt.IsZero() {
		t.Error("UpdatedAt not stamped")
	}
	// Re-put bumps the version in place.
	if _, err := s.Put(Record{Fingerprint: f, Plan: tinyPlan(2), Predicted: 1.4}); err != nil {
		t.Fatal(err)
	}
	rec, _ = s.Get(f)
	if rec.Version != 2 || rec.Predicted != 1.4 {
		t.Errorf("after second put: %+v", rec)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
}

// Create writes a fingerprint's first record at Version 1 and, once the
// store holds one, writes nothing and hands the held record back.
func TestCreateKeepsTheFirstRecord(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f := fp("gpt3-2.7b", 4, 32)
	rec, created, err := s.Create(Record{Fingerprint: f, Plan: tinyPlan(2), Predicted: 1.5})
	if err != nil || !created || rec.Version != 1 || rec.UpdatedAt.IsZero() {
		t.Fatalf("first create: created=%v err=%v rec=%+v", created, err, rec)
	}
	rec, created, err = s.Create(Record{Fingerprint: f, Plan: tinyPlan(2), Predicted: 1.4})
	if err != nil || created || rec.Version != 1 || rec.Predicted != 1.5 {
		t.Fatalf("second create: created=%v err=%v rec=%+v, want the first record back", created, err, rec)
	}
	if held, _ := s.Get(f); held.Version != 1 || held.Predicted != 1.5 {
		t.Errorf("held record after a second create: %+v", held)
	}
	if _, _, err := s.Create(Record{Fingerprint: fp("gpt3-1.3b", 2, 8)}); err == nil {
		t.Error("created a record without a plan")
	}
}

func TestCanonicalKeyCollapsesSpelling(t *testing.T) {
	s := InMemory()
	f := fp("gpt3-2.7b", 4, 32)
	f.Platform, f.Space = "L4", "Mist"
	if _, err := s.Put(Record{Fingerprint: f, Plan: tinyPlan(1)}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(fp("gpt3-2.7b", 4, 32)); !ok {
		t.Error("lower-cased fingerprint missed the upper-cased record")
	}
}

func TestSnapshotReloadAndCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []Fingerprint{fp("gpt3-2.7b", 4, 32), fp("gpt3-2.7b", 8, 64), fp("llama-7b", 8, 32)} {
		if _, err := s.Put(Record{Fingerprint: f, Plan: tinyPlan(2), PredThroughput: float64(f.GPUs)}); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt documents and stray temp files must not poison the load.
	if err := os.WriteFile(filepath.Join(dir, "garbage.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ".tmp-123"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 3 {
		t.Fatalf("reloaded %d records, want 3", s2.Len())
	}
	if s2.LoadSkipped() != 1 {
		t.Errorf("LoadSkipped = %d, want 1 (garbage.json)", s2.LoadSkipped())
	}
	rec, ok := s2.Get(fp("gpt3-2.7b", 8, 64))
	if !ok || rec.PredThroughput != 8 || rec.Plan == nil || len(rec.Plan.Stages) != 2 {
		t.Errorf("reloaded record wrong: ok=%v %+v", ok, rec)
	}
}

func TestAtomicWriteLeavesValidDocuments(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	f := fp("gpt3-2.7b", 4, 32)
	for i := 0; i < 5; i++ {
		if _, err := s.Put(Record{Fingerprint: f, Plan: tinyPlan(2)}); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	docs := 0
	for _, ent := range entries {
		if strings.HasPrefix(ent.Name(), ".tmp-") {
			t.Errorf("stray temp file %s left behind", ent.Name())
		}
		if !strings.HasSuffix(ent.Name(), ".json") {
			continue
		}
		docs++
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		var rec Record
		if err := json.Unmarshal(data, &rec); err != nil {
			t.Errorf("document %s not valid JSON: %v", ent.Name(), err)
		}
		if rec.Version != 5 {
			t.Errorf("document version %d, want 5", rec.Version)
		}
	}
	if docs != 1 {
		t.Errorf("%d documents for one fingerprint, want 1", docs)
	}
}

func TestNearestNeighborRanking(t *testing.T) {
	s := InMemory()
	put := func(f Fingerprint) {
		t.Helper()
		if _, err := s.Put(Record{Fingerprint: f, Plan: tinyPlan(1)}); err != nil {
			t.Fatal(err)
		}
	}

	// Same model, different batch — the closest possible neighbor.
	put(fp("gpt3-2.7b", 4, 64))
	// Same family, different size.
	put(fp("gpt3-1.3b", 4, 32))
	// Different family: never a neighbor.
	put(fp("llama-7b", 4, 32))
	// Same model but other platform/space/flash: filtered out.
	other := fp("gpt3-2.7b", 4, 32)
	other.Platform = "a100"
	other.Seq = 4096
	put(other)
	noflash := fp("gpt3-2.7b", 4, 32)
	noflash.Flash = false
	put(noflash)

	rec, ok := s.Nearest(fp("gpt3-2.7b", 4, 32))
	if !ok {
		t.Fatal("no neighbor found")
	}
	if got := rec.Fingerprint; got.Model != "gpt3-2.7b" || got.Batch != 64 {
		t.Errorf("nearest = %+v, want gpt3-2.7b batch 64", got)
	}

	// With the same-model records gone, the family sibling wins over the
	// other-family record.
	s2 := InMemory()
	put2 := func(f Fingerprint) {
		t.Helper()
		if _, err := s2.Put(Record{Fingerprint: f, Plan: tinyPlan(1)}); err != nil {
			t.Fatal(err)
		}
	}
	put2(fp("gpt3-1.3b", 4, 32))
	put2(fp("llama-7b", 4, 32))
	rec, ok = s2.Nearest(fp("gpt3-2.7b", 4, 32))
	if !ok || rec.Fingerprint.Model != "gpt3-1.3b" {
		t.Errorf("family neighbor = %+v, want gpt3-1.3b", rec.Fingerprint)
	}

	// A store holding only other families has no neighbor to offer.
	s3 := InMemory()
	if _, err := s3.Put(Record{Fingerprint: fp("falcon-7b", 4, 32), Plan: tinyPlan(1)}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s3.Nearest(fp("gpt3-2.7b", 4, 32)); ok {
		t.Error("cross-family neighbor returned")
	}
}

func TestNearestExcludesExactFingerprint(t *testing.T) {
	s := InMemory()
	f := fp("gpt3-2.7b", 4, 32)
	if _, err := s.Put(Record{Fingerprint: f, Plan: tinyPlan(1)}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Nearest(f); ok {
		t.Error("Nearest returned the exact fingerprint; exact hits go through Get")
	}
}

func TestPutRejectsNilPlan(t *testing.T) {
	s := InMemory()
	if _, err := s.Put(Record{Fingerprint: fp("gpt3-2.7b", 4, 32)}); err == nil {
		t.Error("nil plan accepted")
	}
}
