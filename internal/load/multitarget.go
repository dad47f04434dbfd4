package load

import (
	"fmt"
	"net/http"
	"net/url"
	"sync"
)

// MultiTarget spreads ops round-robin across several node targets —
// the load harness's stand-in for a client-side load balancer in front
// of a mistserve cluster. Nodes marked failed (Fail) are skipped for the
// rest of the run, the way a health-checked balancer stops sending to a
// dead backend.
type MultiTarget struct {
	mu      sync.Mutex
	targets []Target
	down    []bool
	next    int
}

// NewMultiTarget builds a round-robin target over the node targets.
func NewMultiTarget(targets ...Target) (*MultiTarget, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("load: multi-target needs at least one target")
	}
	return &MultiTarget{targets: targets, down: make([]bool, len(targets))}, nil
}

// Len reports the member count (failed included).
func (m *MultiTarget) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.targets)
}

// Add admits a new node to the rotation mid-run — the harness's
// stand-in for a load balancer discovering a freshly joined backend.
// Returns the node's index (usable with Fail).
func (m *MultiTarget) Add(t Target) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.targets = append(m.targets, t)
	m.down = append(m.down, false)
	return len(m.targets) - 1
}

// Fail removes node i from the rotation.
func (m *MultiTarget) Fail(i int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if i >= 0 && i < len(m.down) {
		m.down[i] = true
	}
}

// Do dispatches to the next live node; with every node failed it
// reports a transport error.
func (m *MultiTarget) Do(req *http.Request) (*http.Response, error) {
	m.mu.Lock()
	var t Target
	for scanned := 0; scanned < len(m.targets); scanned++ {
		i := m.next % len(m.targets)
		m.next++
		if !m.down[i] {
			t = m.targets[i]
			break
		}
	}
	m.mu.Unlock()
	if t == nil {
		return nil, fmt.Errorf("load: every node in the multi-target is failed")
	}
	return t.Do(req)
}

// rebased rewrites each request onto a fixed base URL before
// delegating — so one op stream (whose URLs are built against a
// placeholder base) can fan out to differently addressed live nodes.
type rebased struct {
	base  *url.URL
	inner Target
}

// WithBase wraps a target so every request is re-addressed to base
// (scheme and host replaced, path and query preserved).
func WithBase(t Target, base string) (Target, error) {
	u, err := url.Parse(base)
	if err != nil {
		return nil, fmt.Errorf("load: bad base URL %q: %w", base, err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("load: base URL %q needs scheme and host", base)
	}
	return &rebased{base: u, inner: t}, nil
}

func (r *rebased) Do(req *http.Request) (*http.Response, error) {
	clone := req.Clone(req.Context())
	clone.URL.Scheme = r.base.Scheme
	clone.URL.Host = r.base.Host
	clone.Host = ""
	return r.inner.Do(clone)
}
