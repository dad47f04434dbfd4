package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
)

// This file is what makes a repeated /tune or /simulate a map lookup
// followed by a write of stored bytes: the body memo in front of the
// plan cache (one per endpoint) and the replies each plan-cache entry
// renders once.

// maxBodyBytes bounds every request body the service reads; a longer
// one is answered 413.
const maxBodyBytes = 1 << 20

// errBodyTooLarge is what reading a body past maxBodyBytes fails with.
var errBodyTooLarge = fmt.Errorf("request body too large (limit %d bytes)", maxBodyBytes)

// limitedBody reads a request body up to maxBodyBytes; reading the byte
// after them fails with errBodyTooLarge.
type limitedBody struct{ io.LimitedReader }

func limitBody(r io.Reader) io.Reader {
	return &limitedBody{io.LimitedReader{R: r, N: maxBodyBytes + 1}}
}

func (l *limitedBody) Read(p []byte) (int, error) {
	n, err := l.LimitedReader.Read(p)
	if l.N == 0 {
		return n, errBodyTooLarge
	}
	return n, err
}

// The body memo's bounds: entries per endpoint (the plan cache's own
// bound), and the longest body it keeps — a spec is ~100 bytes, so a
// body padded past this is decoded every time rather than pinned in
// memory.
const (
	bodyMemoEntries  = defaultCacheCap
	bodyMemoMaxBytes = 512
)

// memoSpec is what a remembered body resolved to: its normalized spec
// and that spec's canonical key. The workload, cluster and space are not
// kept; the paths that need them (a search, a fresh measurement) build
// them from the spec.
type memoSpec struct {
	spec WorkloadSpec
	key  string
}

// bodyMemo maps the raw bytes of request bodies an endpoint has already
// decoded and normalized to what they resolved to. Only bodies that
// resolved are kept: a 400 is decoded again on every request. A nil
// memo remembers nothing. When full, an arbitrary entry makes room.
type bodyMemo struct {
	mu sync.RWMutex
	m  map[string]memoSpec
}

func (bm *bodyMemo) get(body []byte) (memoSpec, bool) {
	if bm == nil {
		return memoSpec{}, false
	}
	bm.mu.RLock()
	e, ok := bm.m[string(body)]
	bm.mu.RUnlock()
	return e, ok
}

func (bm *bodyMemo) put(body []byte, e memoSpec) {
	if bm == nil || len(body) > bodyMemoMaxBytes {
		return
	}
	bm.mu.Lock()
	defer bm.mu.Unlock()
	if bm.m == nil {
		bm.m = make(map[string]memoSpec)
	}
	if _, ok := bm.m[string(body)]; ok {
		return
	}
	if len(bm.m) >= bodyMemoEntries {
		for k := range bm.m {
			delete(bm.m, k)
			break
		}
	}
	bm.m[string(body)] = e
}

// rendered is one reply of a plan-cache entry, encoded by the first
// request that needs it and written as stored bytes after that.
// Concurrent first requests wait for one render; a render that fails
// stores nothing, so the next request renders again. The render runs
// under mu, so it must not block: it encodes, or measures and encodes.
type rendered struct {
	mu   sync.Mutex
	done atomic.Bool
	b    []byte // written once, under mu, before done is set
}

func (r *rendered) get(render func() ([]byte, error)) ([]byte, error) {
	if r.done.Load() {
		return r.b, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done.Load() {
		return r.b, nil
	}
	b, err := render()
	if err != nil {
		return nil, err
	}
	r.b = b
	r.done.Store(true)
	return b, nil
}

// encodeJSON renders v exactly as writeJSON writes it, trailing newline
// included (nothing, if v does not encode).
func encodeJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		return nil
	}
	return append(b, '\n')
}

// writeRendered writes a 200 whose body was rendered by encodeJSON.
func writeRendered(rw http.ResponseWriter, b []byte) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(http.StatusOK)
	_, _ = rw.Write(b)
}
