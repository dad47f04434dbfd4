package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/serve"
)

// TestOversizedBodyIs413: a body past 1 MiB is refused with 413 and the
// error envelope on every endpoint that reads one, the
// fingerprint-keyed ones and a cluster route alike, before any work is
// done for it. The padding leads, so a decoder that stops at the end of
// the first value still has to read it.
func TestOversizedBodyIs413(t *testing.T) {
	lc := newCluster(t, 1, 1)
	id := lc.IDs()[0]
	h := lc.Handler(id)
	pad := strings.Repeat(" ", 1<<20)
	for path, v := range map[string]any{
		"/tune":              serve.TuneRequest{WorkloadSpec: clusterSpec(0)},
		"/simulate":          serve.SimulateRequest{WorkloadSpec: clusterSpec(0)},
		"/jobs":              serve.JobsSubmitRequest{JobSpec: serve.JobSpec{WorkloadSpec: clusterSpec(0)}},
		"/cluster/replicate": struct{}{},
	} {
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(append([]byte(pad), body...))))
		var reply cluster.ErrorReply
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413: %.200s", path, rec.Code, rec.Body)
		} else if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil || !strings.Contains(reply.Error, "too large") {
			t.Errorf("%s: 413 body %q is not the error envelope (%v)", path, rec.Body, err)
		}
	}
	if st := lc.Node(id).Stats(); st.TunesRun != 0 || st.JobsSubmitted != 0 {
		t.Errorf("an oversized body did work: %d searches, %d jobs", st.TunesRun, st.JobsSubmitted)
	}
}
