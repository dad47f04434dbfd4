// Package store is the durable, versioned plan store behind the tuning
// service: every tuned (workload, cluster, space) triple is written to
// disk as one JSON document, atomically (temp file + rename), and the
// whole directory is snapshot-loaded into an in-memory index on server
// start, so a killed-and-restarted server serves previously tuned plans
// straight from disk, without re-searching.
//
// The index key is the canonical fingerprint — model, platform, GPU
// count, global batch, sequence length, FlashAttention, search space —
// with platform and space lower-cased, so wire-level spelling variants
// collapse to one record. Records are versioned: re-putting a
// fingerprint bumps Version and atomically replaces the document.
package store

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/plan"
)

// Fingerprint names a (workload, cluster, space) triple. It mirrors the
// serving layer's plan-cache identity so the store and the in-memory
// cache agree about which requests are "the same".
type Fingerprint struct {
	Model    string `json:"model"`
	Platform string `json:"platform"`
	GPUs     int    `json:"gpus"`
	Batch    int    `json:"batch"`
	Seq      int    `json:"seq"`
	Flash    bool   `json:"flash"`
	Space    string `json:"space"`
}

// canonical lower-cases the free-form fields so spelling variants of the
// same triple share one record.
func (f Fingerprint) canonical() Fingerprint {
	f.Platform = strings.ToLower(f.Platform)
	f.Space = strings.ToLower(f.Space)
	return f
}

// Key renders the canonical index key,
// model|platform|gpus|batch|seq|flash|space. It names ring ownership and
// the stored file (fileName), so its bytes never change.
func (f Fingerprint) Key() string {
	f = f.canonical()
	b := make([]byte, 0, len(f.Model)+len(f.Platform)+len(f.Space)+40)
	b = append(append(b, f.Model...), '|')
	b = append(append(b, f.Platform...), '|')
	b = append(strconv.AppendInt(b, int64(f.GPUs), 10), '|')
	b = append(strconv.AppendInt(b, int64(f.Batch), 10), '|')
	b = append(strconv.AppendInt(b, int64(f.Seq), 10), '|')
	b = append(strconv.AppendBool(b, f.Flash), '|')
	return string(append(b, f.Space...))
}

// Record is one stored plan with its prediction and provenance.
type Record struct {
	Fingerprint    Fingerprint `json:"fingerprint"`
	Plan           *plan.Plan  `json:"plan"`
	Predicted      float64     `json:"predictedIterTime"`
	PredThroughput float64     `json:"predictedThroughput"`

	// Version counts writes to this fingerprint (1 on first Put); it is
	// store-managed, callers need not set it.
	Version   int       `json:"version"`
	UpdatedAt time.Time `json:"updatedAt"`
}

// Store is a concurrency-safe plan store. With a backing directory every
// Put is written through to disk; with none (InMemory) it degrades to a
// process-local index with identical semantics.
//
// Two locks split the write path from the read path: wmu serializes
// writers end to end — version assignment, the atomic document write
// (temp file + fsync + rename), and the index update — while mu guards
// only the in-memory index. Readers on the tune hot path therefore
// never wait on disk: a Get during a concurrent Put returns the old
// record until the new document is durably on disk and installed.
type Store struct {
	dir string

	// wmu is the writer-serialization lock: held across the disk commit
	// by design, so concurrent Puts cannot interleave temp files and
	// version bumps. Never taken by readers.
	wmu sync.Mutex

	mu   sync.RWMutex
	recs map[string]Record

	// LoadSkipped counts directory entries that existed but could not be
	// decoded as records at Open time (corrupt or foreign files); they
	// are left untouched on disk and excluded from the index.
	loadSkipped int
}

// InMemory builds a store with no backing directory.
func InMemory() *Store {
	return &Store{recs: map[string]Record{}}
}

// Open loads (creating if needed) a directory-backed store. Corrupt
// documents are skipped, not fatal: one bad file must not take down the
// whole snapshot.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return InMemory(), nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	s := &Store{dir: dir, recs: map[string]Record{}}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: reading %s: %w", dir, err)
	}
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".json") || strings.HasPrefix(name, ".") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			s.loadSkipped++
			continue
		}
		var rec Record
		if err := json.Unmarshal(data, &rec); err != nil || rec.Plan == nil || rec.Fingerprint.Model == "" {
			s.loadSkipped++
			continue
		}
		rec.Fingerprint = rec.Fingerprint.canonical()
		key := rec.Fingerprint.Key()
		if prev, ok := s.recs[key]; !ok || rec.Version > prev.Version {
			s.recs[key] = rec
		}
	}
	return s, nil
}

// Dir reports the backing directory ("" for in-memory stores).
func (s *Store) Dir() string { return s.dir }

// LoadSkipped reports how many on-disk documents were unreadable at Open.
func (s *Store) LoadSkipped() int { return s.loadSkipped }

// Len reports the number of indexed plans.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.recs)
}

// Records snapshots every indexed record, sorted by key — the cluster
// tier's audit surface (e.g. asserting each fingerprint was tuned
// exactly once fleet-wide by checking versions across nodes).
func (s *Store) Records() []Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := make([]string, 0, len(s.recs))
	for k := range s.recs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Record, 0, len(keys))
	for _, k := range keys {
		out = append(out, s.recs[k])
	}
	return out
}

// Get returns the record for an exact fingerprint.
func (s *Store) Get(f Fingerprint) (Record, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rec, ok := s.recs[f.Key()]
	return rec, ok
}

// GetByKey returns the record for a canonical fingerprint key — the
// cluster tier's record-fetch path, where only the wire key crosses
// nodes.
func (s *Store) GetByKey(key string) (Record, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rec, ok := s.recs[key]
	return rec, ok
}

// Delete removes a fingerprint's record from the index and, when
// directory-backed, from disk — the rebalancer's release step after a
// record this node no longer replicates has been confirmed on every
// current replica. Unknown fingerprints are a no-op.
func (s *Store) Delete(f Fingerprint) error {
	f = f.canonical()
	key := f.Key()
	//mistlint:ignore lockio wmu is the writer-serialization lock; it exists to order disk commits and never blocks readers
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.RLock()
	_, ok := s.recs[key]
	s.mu.RUnlock()
	if !ok {
		return nil
	}
	if s.dir != "" {
		if err := os.Remove(filepath.Join(s.dir, fileName(f))); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("store: deleting %s: %w", key, err)
		}
	}
	s.mu.Lock()
	delete(s.recs, key)
	s.mu.Unlock()
	return nil
}

// Put indexes (and, when directory-backed, durably writes) a record,
// bumping the fingerprint's version. The caller's Version/UpdatedAt are
// overwritten; the record as stored (version assigned) is returned.
func (s *Store) Put(rec Record) (Record, error) {
	if rec.Plan == nil {
		return Record{}, fmt.Errorf("store: refusing to store a nil plan for %s", rec.Fingerprint.Key())
	}
	rec, _, err := s.commit(rec, true)
	return rec, err
}

// Create stores a fingerprint's first record, at Version 1 stamped now,
// and returns it with created true. When the store already holds the
// fingerprint — a peer's write-through landed while this node searched
// it — nothing is written and the held record comes back instead, so a
// second search of one key never mints a second version.
func (s *Store) Create(rec Record) (Record, bool, error) {
	if rec.Plan == nil {
		return Record{}, false, fmt.Errorf("store: refusing to store a nil plan for %s", rec.Fingerprint.Key())
	}
	rec.Version, rec.UpdatedAt = 1, time.Now().UTC()
	created, applied, err := s.commit(rec, false)
	if err != nil || applied {
		return created, applied, err
	}
	held, _ := s.Get(rec.Fingerprint)
	return held, false, nil
}

// Apply installs a record replicated from a peer, preserving the
// incoming Version: the write happens only when the incoming version is
// newer than the local one (false, nil otherwise).
func (s *Store) Apply(rec Record) (bool, error) {
	if rec.Plan == nil {
		return false, fmt.Errorf("store: refusing to apply a nil plan for %s", rec.Fingerprint.Key())
	}
	if rec.Version < 1 {
		return false, fmt.Errorf("store: refusing to apply unversioned record for %s", rec.Fingerprint.Key())
	}
	_, applied, err := s.commit(rec, false)
	return applied, err
}

// commit is the one write: under wmu it reads the fingerprint's current
// version, then either mints the next one and stamps UpdatedAt (mint,
// a local Put) or keeps the record's own and writes only forward (an
// Apply; false when the store already holds that version or a newer
// one), writes the document when directory-backed, and installs it.
func (s *Store) commit(rec Record, mint bool) (Record, bool, error) {
	rec.Fingerprint = rec.Fingerprint.canonical()
	key := rec.Fingerprint.Key()

	//mistlint:ignore lockio wmu is the writer-serialization lock; it exists to order disk commits and never blocks readers
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.RLock()
	cur := s.recs[key].Version
	s.mu.RUnlock()
	if mint {
		rec.Version, rec.UpdatedAt = cur+1, time.Now().UTC()
	} else if cur >= rec.Version {
		return Record{}, false, nil
	}
	if s.dir != "" {
		if err := s.writeDoc(key, rec); err != nil {
			return Record{}, false, err
		}
	}
	s.mu.Lock()
	s.recs[key] = rec
	s.mu.Unlock()
	return rec, true, nil
}

// writeDoc persists one record atomically: marshal to a temp file in
// the store directory, fsync, then rename over the final name. A crash
// mid-write leaves either the old document or a stray temp file (ignored
// at load), never a torn record. Callers hold wmu (writers are
// serialized); the index lock mu is deliberately NOT held here.
func (s *Store) writeDoc(key string, rec Record) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("store: marshaling %s: %w", key, err)
	}
	final := filepath.Join(s.dir, fileName(rec.Fingerprint))
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: writing %s: %w", key, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: syncing %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: closing %s: %w", key, err)
	}
	if err := os.Rename(tmpName, final); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: committing %s: %w", key, err)
	}
	return nil
}

// fileName derives a stable, filesystem-safe document name: a readable
// model prefix plus the FNV-64a of the canonical key (two fingerprints
// never share a name unless they share a key).
func fileName(f Fingerprint) string {
	h := fnv.New64a()
	h.Write([]byte(f.Key()))
	var prefix strings.Builder
	for _, r := range f.Model {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
			prefix.WriteRune(r)
		default:
			prefix.WriteByte('_')
		}
	}
	return fmt.Sprintf("%s-%016x.json", prefix.String(), h.Sum64())
}

// Nearest finds the stored workload closest to f among records of the
// same platform, search space, and FlashAttention setting, and the same
// model family (exact model name when the model is outside the catalog).
// Distance is measured in doublings of GPU count, batch, and sequence
// length, with a fixed penalty for a different model size within the
// family; GPU-count distance is weighted highest because it reshapes the
// plan the most. The exact fingerprint itself is excluded.
// It has no caller in the program: benchmarks/mistperf/seam.go names it (ROADMAP 10 (g)).
func (s *Store) Nearest(f Fingerprint) (Record, bool) {
	f = f.canonical()
	key := f.Key()
	fam, famKnown := familyOf(f.Model)

	s.mu.RLock()
	defer s.mu.RUnlock()
	var (
		best     Record
		bestDist float64
		bestKey  string
		found    bool
	)
	for k, rec := range s.recs {
		g := rec.Fingerprint
		if k == key || g.Platform != f.Platform || g.Space != f.Space || g.Flash != f.Flash {
			continue
		}
		if g.Model != f.Model {
			gfam, ok := familyOf(g.Model)
			if !famKnown || !ok || gfam != fam {
				continue
			}
		}
		d := dist(f, g)
		if !found || d < bestDist || (d == bestDist && k < bestKey) {
			best, bestDist, bestKey, found = rec, d, k, true
		}
	}
	return best, found
}

func dist(a, b Fingerprint) float64 {
	d := 0.0
	if a.Model != b.Model {
		d += 4
	}
	d += 2 * absLog2(float64(a.GPUs)/float64(b.GPUs))
	d += absLog2(float64(a.Batch) / float64(b.Batch))
	d += 0.5 * absLog2(float64(a.Seq)/float64(b.Seq))
	return d
}

func absLog2(r float64) float64 {
	if r <= 0 || math.IsInf(r, 0) || math.IsNaN(r) {
		return math.Inf(1)
	}
	return math.Abs(math.Log2(r))
}

// familyOf resolves a model name to its catalog family.
func familyOf(name string) (model.Family, bool) {
	cfg, err := model.ByName(name)
	if err != nil {
		return 0, false
	}
	return cfg.Family, true
}
