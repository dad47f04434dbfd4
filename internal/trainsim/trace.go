package trainsim

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/pipeline"
	"repro/internal/plan"
)

// Trace executes the plan and returns the per-op pipeline timeline
// alongside the measurement, read off the measurement's one playback.
func (e *Engine) Trace(p *plan.Plan) (Measurement, []pipeline.Event, error) {
	m, run, err := e.play(p)
	if err != nil {
		return Measurement{}, nil, err
	}
	return m, run.Events(), nil
}

// chromeEvent is one complete ("X" phase) event in the Chrome trace
// format (chrome://tracing, Perfetto).
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`  // microseconds
	Dur  float64           `json:"dur"` // microseconds
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChromeTrace renders a pipeline timeline in the Chrome trace event
// format: one "thread" per pipeline stage, one complete event per
// microbatch forward/backward. Load the output in chrome://tracing or
// https://ui.perfetto.dev.
func WriteChromeTrace(w io.Writer, events []pipeline.Event) error {
	out := make([]chromeEvent, 0, len(events))
	for _, ev := range events {
		name := fmt.Sprintf("fwd mb%d", ev.Microbatch)
		cat := "forward"
		if !ev.Fwd {
			name = fmt.Sprintf("bwd mb%d", ev.Microbatch)
			cat = "backward"
		}
		out = append(out, chromeEvent{
			Name: name, Cat: cat, Ph: "X",
			Ts: ev.Start * 1e6, Dur: (ev.End - ev.Start) * 1e6,
			Pid: 0, Tid: ev.Stage,
			Args: map[string]string{"microbatch": fmt.Sprint(ev.Microbatch)},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]interface{}{"traceEvents": out, "displayTimeUnit": "ms"})
}
