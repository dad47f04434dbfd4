package serve

import (
	"bytes"
	"context"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/trace"
)

// A request line carries the ingress request id and, when sampled, the
// trace id as attributes — stamped by the handler wrapper, so no call
// site can forget them.
func TestLoggerStampsRequestAndTraceIDs(t *testing.T) {
	var buf bytes.Buffer
	s := New(
		WithLogger(slog.New(slog.NewTextHandler(&buf, nil))),
		WithTrace(trace.Options{SampleEvery: 1}),
	)
	defer s.Close()
	req := httptest.NewRequest(http.MethodPost, "/tune",
		strings.NewReader(`{"model":"gpt3-1.3b","gpus":2,"batch":8,"space":"deepspeed"}`))
	req.Header.Set(cluster.HeaderRequestID, "rid-log-1")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/tune: %d %s", rec.Code, rec.Body.String())
	}
	line := ""
	for _, l := range strings.Split(buf.String(), "\n") {
		if strings.Contains(l, "msg=request ") {
			line = l
		}
	}
	for _, want := range []string{"method=POST", "endpoint=/tune", "code=200", "took=", "request=rid-log-1", " trace="} {
		if !strings.Contains(line, want) {
			t.Errorf("request line %q lacks %q (log:\n%s)", line, want, buf.String())
		}
	}
}

func TestLoggingOffByDefault(t *testing.T) {
	for name, s := range map[string]*Server{"no option": New(), "nil logger": New(WithLogger(nil))} {
		if s.logging(context.Background()) {
			t.Errorf("%s: logging enabled", name)
		}
		s.log.Info("dropped") // must not panic on the disabled handler
		s.Close()
	}
}
