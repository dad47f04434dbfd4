package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Apply preserves the incoming version and only moves forward: stale
// and equal versions are no-ops, newer ones replace.
func TestApplyVersionGate(t *testing.T) {
	s := InMemory()
	f := fp("gpt3-2.7b", 4, 32)
	if applied, err := s.Apply(Record{Fingerprint: f, Plan: tinyPlan(1), Version: 2}); err != nil || !applied {
		t.Fatalf("first apply: %v applied=%v", err, applied)
	}
	rec, ok := s.Get(f)
	if !ok || rec.Version != 2 {
		t.Fatalf("stored %+v, want version 2 preserved", rec)
	}
	if applied, _ := s.Apply(Record{Fingerprint: f, Plan: tinyPlan(2), Version: 2}); applied {
		t.Error("equal version re-applied")
	}
	if applied, _ := s.Apply(Record{Fingerprint: f, Plan: tinyPlan(2), Version: 1}); applied {
		t.Error("stale version applied")
	}
	if applied, _ := s.Apply(Record{Fingerprint: f, Plan: tinyPlan(3), Version: 5}); !applied {
		t.Error("newer version rejected")
	}
	rec, _ = s.Get(f)
	if rec.Version != 5 || len(rec.Plan.Stages) != 3 {
		t.Fatalf("after newer apply: %+v", rec)
	}
	// A local Put on top of a replicated record still bumps past it.
	put, err := s.Put(Record{Fingerprint: f, Plan: tinyPlan(1)})
	if err != nil || put.Version != 6 {
		t.Fatalf("put after apply: %+v err %v", put, err)
	}
	if _, err := s.Apply(Record{Fingerprint: f, Plan: tinyPlan(1)}); err == nil {
		t.Error("unversioned apply accepted")
	}
	if _, err := s.Apply(Record{Fingerprint: f, Version: 9}); err == nil {
		t.Error("nil-plan apply accepted")
	}
}

// Directory-backed Apply is as durable as Put: the replicated record
// survives a reopen.
func TestApplyPersistsToDisk(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	f := fp("gpt3-2.7b", 8, 64)
	if applied, err := s.Apply(Record{Fingerprint: f, Plan: tinyPlan(2), Version: 4}); err != nil || !applied {
		t.Fatalf("apply: %v applied=%v", err, applied)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var docs int
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".json") {
			docs++
			if _, err := os.Stat(filepath.Join(dir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}
	if docs != 1 {
		t.Fatalf("%d documents on disk, want 1", docs)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := s2.Get(f)
	if !ok || rec.Version != 4 {
		t.Fatalf("reopened record %+v, want version 4", rec)
	}
}
