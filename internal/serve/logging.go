package serve

import (
	"context"
	"io"
	"log/slog"
	"math"

	"repro/internal/trace"
)

// WithLogger installs a structured logger for request, forwarding,
// replication, repair and SLO lines. Every record logged with a
// request's context carries its ingress request id ("request") and,
// when the request is sampled, its trace id ("trace") as attributes, so
// a grep for either id finds every line the request touched, across
// nodes. A nil logger (the default) disables logging.
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) {
		if l != nil {
			s.log = slog.New(idHandler{l.Handler()})
		}
	}
}

// disabledLogger is what a server without WithLogger logs to: a handler
// whose minimum level no record reaches (slog.DiscardHandler needs Go
// 1.24; CI also builds on 1.23), so request paths that ask logging()
// first build nothing.
var disabledLogger = slog.New(slog.NewTextHandler(io.Discard,
	&slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))

// logging reports whether an info line would be written. Sites on a
// request path ask before building a line's arguments: with logging
// off a request must not pay for the line it does not write.
func (s *Server) logging(ctx context.Context) bool {
	return s.log.Enabled(ctx, slog.LevelInfo)
}

// idHandler stamps each record with the request and trace identity its
// context carries. A logger derived with With or WithGroup would fall
// through to the inner handler unstamped; serve derives none.
type idHandler struct{ slog.Handler }

func (h idHandler) Handle(ctx context.Context, r slog.Record) error {
	if rid := trace.RequestID(ctx); rid != "" {
		r.AddAttrs(slog.String("request", rid))
	}
	if sp := trace.FromContext(ctx); sp != nil {
		r.AddAttrs(slog.String("trace", sp.TraceID()))
	}
	return h.Handler.Handle(ctx, r)
}
